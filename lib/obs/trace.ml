module Json = Lk_benchkit.Json

let schema = "lca-knapsack-trace/2"

type t = {
  label : string;
  argv : string list;  (* in order *)
  dropped : int;
  events : Event.t list;
}

let make ~label ?(argv = []) ?(dropped = 0) events =
  if dropped < 0 then invalid_arg "Trace.make: negative dropped count";
  { label; argv; dropped; events }

let label t = t.label
let argv t = t.argv
let dropped t = t.dropped
let events t = t.events

let to_json t =
  Json.Obj
    [ ("schema", Json.Str schema);
      ("label", Json.Str t.label);
      ("argv", Json.Arr (List.map (fun a -> Json.Str a) t.argv));
      ("dropped", Json.Num (float_of_int t.dropped));
      ("events", Json.Arr (List.map Event.to_json t.events)) ]

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let rec collect_events = function
  | [] -> Ok []
  | j :: rest ->
      let* e = Event.of_json j in
      let* es = collect_events rest in
      Ok (e :: es)

let of_json json =
  let* () =
    match Json.member "schema" json with
    | Some (Json.Str s) when s = schema -> Ok ()
    | Some (Json.Str s) -> Error (Printf.sprintf "trace: unsupported schema %S" s)
    | _ -> Error "trace: missing schema"
  in
  let* label =
    match Json.member "label" json with
    | Some (Json.Str s) -> Ok s
    | _ -> Error "trace: missing label"
  in
  let* argv =
    match Json.member "argv" json with
    | Some (Json.Arr items) ->
        let rec strings = function
          | [] -> Ok []
          | Json.Str a :: rest ->
              let* tail = strings rest in
              Ok (a :: tail)
          | _ :: _ -> Error "trace: argv holds a non-string"
        in
        strings items
    | _ -> Error "trace: missing argv array"
  in
  let* dropped =
    match Json.member "dropped" json with
    | Some (Json.Num f) when Float.is_integer f && f >= 0. -> Ok (int_of_float f)
    | _ -> Error "trace: missing dropped count"
  in
  let* events =
    match Json.member "events" json with
    | Some (Json.Arr items) -> collect_events items
    | _ -> Error "trace: missing events array"
  in
  Ok { label; argv; dropped; events }

let save path t = Json.write_file path (to_json t)
let load path = Json.load_file path of_json

let equal_events a b = List.equal Event.equal a.events b.events

type divergence = { index : int; recorded : Event.t option; replayed : Event.t option }

let first_divergence ~recorded ~replayed =
  let rec go i xs ys =
    match (xs, ys) with
    | [], [] -> None
    | x :: xs, y :: ys ->
        if Event.equal x y then go (i + 1) xs ys
        else Some { index = i; recorded = Some x; replayed = Some y }
    | x :: _, [] -> Some { index = i; recorded = Some x; replayed = None }
    | [], y :: _ -> Some { index = i; recorded = None; replayed = Some y }
  in
  go 0 recorded.events replayed.events

(* Sorted (label, count) histogram of the event stream — the summary
   [trace_tool show] prints. *)
let event_histogram t =
  let freq = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let l = Event.label e in
      Hashtbl.replace freq l (1 + Option.value ~default:0 (Hashtbl.find_opt freq l)))
    t.events;
  Lk_util.Det.sorted_bindings freq
