module Json = Lk_benchkit.Json

type oracle =
  | Index_query of int
  | Index_batch of int
  | Weighted_sample of int
  | Weighted_batch of int

type t =
  | Oracle_query of oracle
  | Rng_split of string
  | Phase_enter of string
  | Phase_exit of string
  | Trial_start of int
  | Trial_end of int
  | Partition of { large : int; buckets : int; samples : int }

let label = function
  | Oracle_query (Index_query _) -> "oracle.index"
  | Oracle_query (Index_batch _) -> "oracle.index_batch"
  | Oracle_query (Weighted_sample _) -> "oracle.sample"
  | Oracle_query (Weighted_batch _) -> "oracle.batch"
  | Rng_split _ -> "rng.split"
  | Phase_enter _ -> "phase.enter"
  | Phase_exit _ -> "phase.exit"
  | Trial_start _ -> "trial.start"
  | Trial_end _ -> "trial.end"
  | Partition _ -> "partition"

(* Events carry only ints and strings, so structural equality is exact. *)
let equal (a : t) (b : t) = a = b

let num i = Json.Num (float_of_int i)

let to_json = function
  | Oracle_query (Index_query i) ->
      Json.Obj [ ("t", Json.Str "oracle"); ("kind", Json.Str "index"); ("i", num i) ]
  | Oracle_query (Index_batch k) ->
      Json.Obj [ ("t", Json.Str "oracle"); ("kind", Json.Str "index_batch"); ("k", num k) ]
  | Oracle_query (Weighted_sample i) ->
      Json.Obj [ ("t", Json.Str "oracle"); ("kind", Json.Str "sample"); ("i", num i) ]
  | Oracle_query (Weighted_batch k) ->
      Json.Obj [ ("t", Json.Str "oracle"); ("kind", Json.Str "batch"); ("k", num k) ]
  | Rng_split l -> Json.Obj [ ("t", Json.Str "rng_split"); ("label", Json.Str l) ]
  | Phase_enter p -> Json.Obj [ ("t", Json.Str "phase_enter"); ("name", Json.Str p) ]
  | Phase_exit p -> Json.Obj [ ("t", Json.Str "phase_exit"); ("name", Json.Str p) ]
  | Trial_start i -> Json.Obj [ ("t", Json.Str "trial_start"); ("trial", num i) ]
  | Trial_end i -> Json.Obj [ ("t", Json.Str "trial_end"); ("trial", num i) ]
  | Partition { large; buckets; samples } ->
      Json.Obj
        [ ("t", Json.Str "partition"); ("large", num large); ("buckets", num buckets);
          ("samples", num samples) ]

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let get_str key json =
  match Json.member key json with
  | Some (Json.Str s) -> Ok s
  | _ -> Error (Printf.sprintf "event: missing string field %S" key)

let get_int key json =
  match Json.member key json with
  | Some (Json.Num f) when Float.is_integer f -> Ok (int_of_float f)
  | _ -> Error (Printf.sprintf "event: missing integer field %S" key)

let of_json json =
  let* tag = get_str "t" json in
  match tag with
  | "oracle" -> (
      let* kind = get_str "kind" json in
      match kind with
      | "index" ->
          let* i = get_int "i" json in
          Ok (Oracle_query (Index_query i))
      | "index_batch" ->
          let* k = get_int "k" json in
          Ok (Oracle_query (Index_batch k))
      | "sample" ->
          let* i = get_int "i" json in
          Ok (Oracle_query (Weighted_sample i))
      | "batch" ->
          let* k = get_int "k" json in
          Ok (Oracle_query (Weighted_batch k))
      | other -> Error (Printf.sprintf "event: unknown oracle kind %S" other))
  | "rng_split" ->
      let* l = get_str "label" json in
      Ok (Rng_split l)
  | "phase_enter" ->
      let* p = get_str "name" json in
      Ok (Phase_enter p)
  | "phase_exit" ->
      let* p = get_str "name" json in
      Ok (Phase_exit p)
  | "trial_start" ->
      let* i = get_int "trial" json in
      Ok (Trial_start i)
  | "trial_end" ->
      let* i = get_int "trial" json in
      Ok (Trial_end i)
  | "partition" ->
      let* large = get_int "large" json in
      let* buckets = get_int "buckets" json in
      let* samples = get_int "samples" json in
      Ok (Partition { large; buckets; samples })
  | other -> Error (Printf.sprintf "event: unknown tag %S" other)

let to_string e = Json.to_string (to_json e)
