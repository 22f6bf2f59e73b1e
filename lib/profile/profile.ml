module Json = Lk_benchkit.Json
module Trace = Lk_obs.Trace

type row = { path : string; count : int; self : Span.cost; total : Span.cost }

type trial_stats = {
  trials : int;
  sum : int;
  min_q : int;
  q25 : int;
  q50 : int;
  q90 : int;
  max_q : int;
}

type t = {
  label : string;
  dropped : int;
  issues : string list;
  rows : row list;
  trial_queries : trial_stats option;
}

let balanced t = t.issues = []

(* ------------------------------------------------------------ aggregation *)

let of_events ~label ?(dropped = 0) events =
  let root, issues = Span.of_events events in
  let acc : (string, int * Span.cost * Span.cost) Hashtbl.t = Hashtbl.create 16 in
  let trial_costs = ref [] in
  let rec walk prefix (s : Span.t) =
    let path = if prefix = "" then s.name else prefix ^ ";" ^ s.name in
    let count, self, total =
      Option.value ~default:(0, Span.zero, Span.zero) (Hashtbl.find_opt acc path)
    in
    Hashtbl.replace acc path
      (count + 1, Span.add self s.Span.self, Span.add total s.Span.total);
    if s.Span.trial <> None then
      trial_costs := Span.queries s.Span.total :: !trial_costs;
    List.iter (walk path) s.Span.children
  in
  walk "" root;
  let rows =
    List.map
      (fun (path, (count, self, total)) -> { path; count; self; total })
      (Lk_util.Det.sorted_bindings acc)
  in
  let trial_queries =
    match !trial_costs with
    | [] -> None
    | qs ->
        let arr = Array.of_list qs in
        let emp = Lk_stats.Empirical.of_samples arr in
        Some
          {
            trials = Array.length arr;
            sum = Array.fold_left ( + ) 0 arr;
            min_q = Lk_stats.Empirical.min_value emp;
            q25 = Lk_stats.Empirical.quantile emp 0.25;
            q50 = Lk_stats.Empirical.quantile emp 0.5;
            q90 = Lk_stats.Empirical.quantile emp 0.9;
            max_q = Lk_stats.Empirical.max_value emp;
          }
  in
  { label; dropped; issues; rows; trial_queries }

let of_trace tr =
  of_events ~label:(Trace.label tr) ~dropped:(Trace.dropped tr) (Trace.events tr)

(* ----------------------------------------------------------------- JSON *)

let schema = "lca-knapsack-obs/1"

let num i = Json.Num (float_of_int i)

let cost_to_json (c : Span.cost) =
  Json.Obj
    [ ("events", num c.Span.events);
      ("index", num c.Span.index_queries);
      ("samples", num c.Span.weighted_samples);
      ("splits", num c.Span.rng_splits) ]

let row_to_json r =
  Json.Obj
    [ ("path", Json.Str r.path);
      ("count", num r.count);
      ("self", cost_to_json r.self);
      ("total", cost_to_json r.total) ]

let trials_to_json = function
  | None -> Json.Null
  | Some q ->
      Json.Obj
        [ ("count", num q.trials);
          ("sum", num q.sum);
          ("min", num q.min_q);
          ("q25", num q.q25);
          ("q50", num q.q50);
          ("q90", num q.q90);
          ("max", num q.max_q) ]

let to_json t =
  Json.Obj
    [ ("schema", Json.Str schema);
      ("label", Json.Str t.label);
      ("dropped", num t.dropped);
      ("balanced", Json.Bool (balanced t));
      ("issues", Json.Arr (List.map (fun s -> Json.Str s) t.issues));
      ("phases", Json.Arr (List.map row_to_json t.rows));
      ("trials", trials_to_json t.trial_queries) ]

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let get_int key json =
  match Json.member key json with
  | Some (Json.Num f) when Float.is_integer f -> Ok (int_of_float f)
  | _ -> Error (Printf.sprintf "profile: missing integer field %S" key)

let get_str key json =
  match Json.member key json with
  | Some (Json.Str s) -> Ok s
  | _ -> Error (Printf.sprintf "profile: missing string field %S" key)

let cost_of_json json =
  let* events = get_int "events" json in
  let* index_queries = get_int "index" json in
  let* weighted_samples = get_int "samples" json in
  let* rng_splits = get_int "splits" json in
  Ok
    {
      Span.events;
      index_queries;
      weighted_samples;
      rng_splits;
    }

let row_of_json json =
  let* path = get_str "path" json in
  let* count = get_int "count" json in
  let* self =
    match Json.member "self" json with
    | Some j -> cost_of_json j
    | None -> Error "profile: row missing \"self\""
  in
  let* total =
    match Json.member "total" json with
    | Some j -> cost_of_json j
    | None -> Error "profile: row missing \"total\""
  in
  Ok { path; count; self; total }

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let of_json json =
  let* () =
    match Json.member "schema" json with
    | Some (Json.Str s) when s = schema -> Ok ()
    | Some (Json.Str s) -> Error (Printf.sprintf "profile: unsupported schema %S" s)
    | _ -> Error "profile: missing schema"
  in
  let* label = get_str "label" json in
  let* dropped = get_int "dropped" json in
  let* issues =
    match Json.member "issues" json with
    | Some (Json.Arr items) ->
        map_result
          (function
            | Json.Str s -> Ok s
            | _ -> Error "profile: non-string issue entry")
          items
    | _ -> Error "profile: missing issues array"
  in
  let* rows =
    match Json.member "phases" json with
    | Some (Json.Arr items) -> map_result row_of_json items
    | _ -> Error "profile: missing phases array"
  in
  let* trial_queries =
    match Json.member "trials" json with
    | Some Json.Null -> Ok None
    | Some j ->
        let* trials = get_int "count" j in
        let* sum = get_int "sum" j in
        let* min_q = get_int "min" j in
        let* q25 = get_int "q25" j in
        let* q50 = get_int "q50" j in
        let* q90 = get_int "q90" j in
        let* max_q = get_int "max" j in
        Ok (Some { trials; sum; min_q; q25; q50; q90; max_q })
    | None -> Error "profile: missing trials field"
  in
  Ok { label; dropped; issues; rows; trial_queries }

let save path t = Json.write_file path (to_json t)

let load path =
  match Json.of_file path with
  | exception Json.Parse_error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | exception Sys_error msg -> Error msg
  | json -> of_json json

(* ----------------------------------------------------------------- gate *)

type drift = { dpath : string; field : string; baseline : int; candidate : int }

type comparison = {
  missing : string list;
  added : string list;
  drifts : drift list;
}

let cost_fields prefix (c : Span.cost) =
  [ (prefix ^ ".events", c.Span.events);
    (prefix ^ ".index", c.Span.index_queries);
    (prefix ^ ".samples", c.Span.weighted_samples);
    (prefix ^ ".splits", c.Span.rng_splits) ]

let row_fields r =
  (("count", r.count) :: cost_fields "self" r.self) @ cost_fields "total" r.total

let trial_fields q =
  [ ("trials.count", q.trials);
    ("trials.sum", q.sum);
    ("trials.min", q.min_q);
    ("trials.q25", q.q25);
    ("trials.q50", q.q50);
    ("trials.q90", q.q90);
    ("trials.max", q.max_q) ]

(* Drift test on non-negative integer quantities: relative to the
   baseline, so [tolerance = 0.] means exact equality. *)
let drifted ~tolerance ~baseline ~candidate =
  float_of_int (abs (candidate - baseline)) > tolerance *. float_of_int baseline

let gate ~tolerance ~baseline ~candidate =
  let fields_drifts dpath bs cs =
    (* Both field lists are produced by the same function, so they are
       positionally aligned; assert the names agree anyway. *)
    List.map2
      (fun (fb, b) (fc, c) ->
        assert (fb = fc);
        if drifted ~tolerance ~baseline:b ~candidate:c then
          Some { dpath; field = fb; baseline = b; candidate = c }
        else None)
      bs cs
    |> List.filter_map Fun.id
  in
  let candidate_rows = List.map (fun r -> (r.path, r)) candidate.rows in
  let baseline_rows = List.map (fun r -> (r.path, r)) baseline.rows in
  let missing =
    List.filter_map
      (fun (p, _) -> if List.mem_assoc p candidate_rows then None else Some p)
      baseline_rows
  in
  let added =
    List.filter_map
      (fun (p, _) -> if List.mem_assoc p baseline_rows then None else Some p)
      candidate_rows
  in
  let row_drifts =
    List.concat_map
      (fun (p, b) ->
        match List.assoc_opt p candidate_rows with
        | None -> []
        | Some c -> fields_drifts p (row_fields b) (row_fields c))
      baseline_rows
  in
  let stream_drifts =
    fields_drifts "(trace)"
      [ ("dropped", baseline.dropped) ]
      [ ("dropped", candidate.dropped) ]
    @
    match (baseline.trial_queries, candidate.trial_queries) with
    | None, None -> []
    | Some bq, Some cq -> fields_drifts "(trace)" (trial_fields bq) (trial_fields cq)
    | _ ->
        (* One side has trials, the other none: flag the count itself. *)
        let count = function None -> 0 | Some q -> q.trials in
        [ { dpath = "(trace)"; field = "trials.count";
            baseline = count baseline.trial_queries;
            candidate = count candidate.trial_queries } ]
  in
  { missing; added; drifts = stream_drifts @ row_drifts }

let render_comparison ~tolerance cmp =
  let b = Buffer.create 256 in
  List.iter
    (fun p -> Buffer.add_string b (Printf.sprintf "missing in candidate: %s\n" p))
    cmp.missing;
  List.iter
    (fun p -> Buffer.add_string b (Printf.sprintf "absent from baseline: %s\n" p))
    cmp.added;
  List.iter
    (fun d ->
      Buffer.add_string b
        (Printf.sprintf "DRIFT %-40s %-14s baseline %d candidate %d (tolerance %.0f%%)\n"
           d.dpath d.field d.baseline d.candidate (tolerance *. 100.)))
    cmp.drifts;
  Buffer.contents b
