open Bechamel
open Toolkit

type result = { name : string; ns_per_run : float; r_square : float option }

type file = {
  label : string;
  quota_s : float;
  limit : int;
  results : result list;
}

(* ---------------------------------------------------------------- running *)

let default_limit = 300
let default_quota_s = 0.8

let run ?(limit = default_limit) ?(quota_s = default_quota_s) test =
  let cfg =
    Benchmark.cfg ~limit ~quota:(Time.second quota_s) ~kde:None ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] test in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let analyzed = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) analyzed [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  (* Under tiny quotas OLS can return nan estimates / r² — strip them here
     (JSON has no nan, and a nan time is no measurement at all). *)
  let finite f = Float.is_finite f in
  List.filter_map
    (fun (name, o) ->
      match Analyze.OLS.estimates o with
      | Some (ns :: _) when finite ns ->
          let r_square =
            match Analyze.OLS.r_square o with
            | Some r2 when finite r2 -> Some r2
            | _ -> None
          in
          Some { name; ns_per_run = ns; r_square }
      | _ -> None)
    rows

let measure ?limit ?quota_s ~label test =
  {
    label;
    quota_s = Option.value quota_s ~default:default_quota_s;
    limit = Option.value limit ~default:default_limit;
    results = run ?limit ?quota_s test;
  }

(* ----------------------------------------------------------- JSON schema *)

let schema = "lca-knapsack-bench/1"

let to_json f =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("label", Json.Str f.label);
      ("quota_s", Json.Num f.quota_s);
      ("limit", Json.Num (float_of_int f.limit));
      ( "benches",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Json.Str r.name);
                   ("ns_per_run", Json.Num r.ns_per_run);
                   ( "r_square",
                     match r.r_square with Some r2 -> Json.Num r2 | None -> Json.Null );
                 ])
             f.results) );
    ]

let of_json json =
  let ( let* ) = Option.bind in
  let parsed =
    let* s = Json.member "schema" json in
    let* s = Json.to_string_opt s in
    if not (String.equal s schema) then None
    else
      let* label = Option.bind (Json.member "label" json) Json.to_string_opt in
      let* quota_s = Option.bind (Json.member "quota_s" json) Json.to_float in
      let* limit = Option.bind (Json.member "limit" json) Json.to_float in
      let* benches = Option.bind (Json.member "benches" json) Json.to_list in
      let* results =
        List.fold_left
          (fun acc b ->
            let* acc = acc in
            let* name = Option.bind (Json.member "name" b) Json.to_string_opt in
            let* ns_per_run = Option.bind (Json.member "ns_per_run" b) Json.to_float in
            let r_square = Option.bind (Json.member "r_square" b) Json.to_float in
            Some ({ name; ns_per_run; r_square } :: acc))
          (Some []) benches
      in
      Some { label; quota_s; limit = int_of_float limit; results = List.rev results }
  in
  match parsed with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "not a %s file" schema)

let save path f = Json.write_file path (to_json f)

let load path = Json.load_file path of_json

(* -------------------------------------------------------------- rendering *)

let render_table f =
  let t =
    Lk_util.Tbl.create
      ~title:(Printf.sprintf "%s (monotonic clock, OLS ns/run)" f.label)
      [ "bench"; "time/run"; "r^2" ]
  in
  List.iter
    (fun r ->
      Lk_util.Tbl.add_row t
        [
          r.name;
          Lk_util.Tbl.cell_ns r.ns_per_run;
          (match r.r_square with Some r2 -> Printf.sprintf "%.3f" r2 | None -> "-");
        ])
    f.results;
  Lk_util.Tbl.render t

(* ------------------------------------------------------------- comparison *)

type delta = {
  bench : string;
  baseline_ns : float;
  candidate_ns : float;
  ratio : float;
  gated : bool;
}

type comparison = {
  deltas : delta list;
  regressions : delta list;
  warnings : delta list;
  missing : string list;  (** in baseline, absent from candidate *)
  added : string list;  (** in candidate, absent from baseline *)
}

(* A row is gated (its ratio can hard-fail the compare) only when both
   sides carry a meaningful fit: a null r² means bechamel's OLS could not
   fit the measurement (tiny quota, one-shot timing), and a negative one
   means the fit is worse than no model at all — in either case the ratio
   is noise and may only warn.  Exact quantities smuggled into bench rows
   (hit-rates, counts) declare r_square = Some 1.0 to stay gated. *)
let confident = function Some r2 -> r2 >= 0. | None -> false

let compare_files ~threshold ~baseline ~candidate =
  let assoc results = List.map (fun r -> (r.name, r)) results in
  let base = assoc baseline.results and cand = assoc candidate.results in
  let deltas =
    List.filter_map
      (fun (name, (b : result)) ->
        match List.assoc_opt name cand with
        | Some (c : result) ->
            Some
              {
                bench = name;
                baseline_ns = b.ns_per_run;
                candidate_ns = c.ns_per_run;
                ratio = c.ns_per_run /. b.ns_per_run;
                gated = confident b.r_square && confident c.r_square;
              }
        | None -> None)
      base
  in
  let over = List.filter (fun d -> d.ratio > 1. +. threshold) deltas in
  {
    deltas;
    regressions = List.filter (fun d -> d.gated) over;
    warnings = List.filter (fun d -> not d.gated) over;
    missing =
      List.filter_map
        (fun (name, _) -> if List.mem_assoc name cand then None else Some name)
        base;
    added =
      List.filter_map
        (fun (name, _) -> if List.mem_assoc name base then None else Some name)
        cand;
  }

let render_comparison ~threshold c =
  let t =
    Lk_util.Tbl.create
      ~title:(Printf.sprintf "bench comparison (regression threshold +%.0f%%)" (threshold *. 100.))
      [ "bench"; "baseline"; "candidate"; "ratio"; "verdict" ]
  in
  List.iter
    (fun d ->
      Lk_util.Tbl.add_row t
        [
          d.bench;
          Lk_util.Tbl.cell_ns d.baseline_ns;
          Lk_util.Tbl.cell_ns d.candidate_ns;
          Printf.sprintf "%.2fx" d.ratio;
          (if d.ratio > 1. +. threshold then
             if d.gated then "REGRESSION" else "warn (low fit)"
           else "ok");
        ])
    c.deltas;
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Lk_util.Tbl.render t);
  List.iter
    (fun name -> Buffer.add_string buf (Printf.sprintf "missing from candidate: %s\n" name))
    c.missing;
  List.iter
    (fun name -> Buffer.add_string buf (Printf.sprintf "new in candidate: %s\n" name))
    c.added;
  Buffer.contents buf
