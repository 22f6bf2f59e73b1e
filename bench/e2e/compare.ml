(* Compare two result sets of the end-to-end benchmark, or validate result
   lines.

     compare.exe [--benchmark FILE] A B
       A and B are directories of run records (main.exe --out).  For every
       workload and end-to-end metric of BENCHMARK.json, B's median is
       checked against A's: exit 1 when it is worse by more than the
       metric's bound, or missing.  Spreads are the inter-quartile
       distance over the median; a traced record also gives the tracing
       overhead (traced p50 / untraced p50 - 1).

     compare.exe [--benchmark FILE] --validate 0|1 OUT...
       Each OUT is a captured stdout; its last line must be a result whose
       metrics are exactly BENCHMARK.json's end-to-end (0) or per-layer (1)
       metrics, with correct = true and failed = 0.  Exit 1 otherwise. *)

open Lk_e2e

module Json = Lk_benchkit.Json

type metric = { name : string; unit_ : string; lower_is_better : bool; bound : float }

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("compare: " ^ s); exit 2) fmt

let field key json =
  match Json.member key json with Some v -> v | None -> fail "missing field %S" key

let str json = match Json.to_string_opt json with Some s -> s | None -> fail "expected a string"
let num json = match Json.to_float json with Some f -> f | None -> fail "expected a number"
let list json = match Json.to_list json with Some l -> l | None -> fail "expected a list"

let metrics_of key bench =
  List.map
    (fun m ->
      {
        name = str (field "name" m);
        unit_ = str (field "unit" m);
        lower_is_better = str (field "better" m) = "lower";
        bound = (match Json.member "bound" m with Some b -> num b | None -> 0.);
      })
    (list (field key bench))

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
  in
  let lines = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go []) in
  List.filter (fun l -> String.trim l <> "") lines

(* Problems with one result line, empty when it is valid. *)
let problems expected line =
  match Json.parse line with
  | exception Json.Parse_error e -> [ "unparsable result line: " ^ e ]
  | Json.Obj fields as json ->
      let keys = List.sort compare (List.map fst fields) in
      if keys <> [ "attempted"; "correct"; "failed"; "metrics" ] then
        [ "result keys are " ^ String.concat ", " keys ]
      else
        let is_int v = match Json.to_float v with Some f -> Float.is_integer f | None -> false in
        let metrics = match field "metrics" json with Json.Obj m -> m | _ -> [] in
        List.concat
          [
            (if Json.member "correct" json = Some (Json.Bool true) then [] else [ "correct is not true" ]);
            (if is_int (field "attempted" json) && num (field "attempted" json) >= 1. then []
             else [ "attempted is not a whole number >= 1" ]);
            (if Json.member "failed" json = Some (Json.Num 0.) then [] else [ "failed is not 0" ]);
            (if List.sort compare (List.map fst metrics)
                = List.sort compare (List.map (fun m -> m.name) expected)
             then []
             else [ "metric names differ from BENCHMARK.json" ]);
            List.filter_map
              (fun (name, v) ->
                match (List.find_opt (fun m -> m.name = name) expected, Json.member "value" v) with
                | None, _ -> Some (name ^ ": not in BENCHMARK.json")
                | Some m, Some (Json.Num x) when Float.is_finite x ->
                    if Json.member "unit" v = Some (Json.Str m.unit_) then None
                    else Some (name ^ ": unit differs from BENCHMARK.json")
                | Some _, _ -> Some (name ^ ": no finite value"))
              metrics;
          ]
  | _ -> [ "result line is not an object" ]

let validate bench trace files =
  let expected = metrics_of (if trace then "per_layer" else "end_to_end") bench in
  let bad =
    List.fold_left
      (fun bad path ->
        let errs =
          match List.rev (read_lines path) with
          | [] -> [ "no output" ]
          | last :: _ -> problems expected last
        in
        List.iter (fun e -> Printf.eprintf "%s: %s\n" path e) errs;
        bad || errs <> [])
      false files
  in
  if bad then exit 1

(* The p99, kept in run records but not gated. *)
let p99 = "latency_p99_ms"

(* Records of a result set: (workload, traced, metrics), the p99 among
   the metrics. *)
let records dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.map (fun f ->
         let r =
           try Json.of_file (Filename.concat dir f)
           with Json.Parse_error e -> fail "%s: %s" f e
         in
         let metrics =
           match field "metrics" (field "result" r) with
           | Json.Obj m -> List.map (fun (k, v) -> (k, num (field "value" v))) m
           | _ -> fail "%s: metrics is not an object" f
         in
         let traced = field "trace" r = Json.Bool true in
         (str (field "workload" r), traced, (p99, num (field p99 r)) :: metrics))

let values recs ~workload ~traced name =
  List.filter_map
    (fun (w, t, m) -> if w = workload && t = traced then List.assoc_opt name m else None)
    recs
  |> Array.of_list

let spread_cell xs =
  if Array.length xs < 2 then "-" else Printf.sprintf "%.1f%%" (100. *. Stats.spread xs)

let compare_sets bench dir_a dir_b =
  let e2e = metrics_of "end_to_end" bench in
  let workloads = List.map (fun w -> str (field "name" w)) (list (field "workloads" bench)) in
  let a = records dir_a and b = records dir_b in
  let regressions = ref 0 in
  Printf.printf "%-12s %-15s %12s %12s %8s %7s %8s %8s  %s\n" "workload" "metric" "median A"
    "median B" "change" "bound" "spread A" "spread B" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun m ->
          let va = values a ~workload ~traced:false m.name
          and vb = values b ~workload ~traced:false m.name in
          if Array.length va = 0 || Array.length vb = 0 then begin
            incr regressions;
            Printf.printf "%-12s %-15s missing in %s\n" workload m.name
              (if Array.length va = 0 then "A" else "B")
          end
          else begin
            let ma = Stats.median va and mb = Stats.median vb in
            (* positive = worse *)
            let change = (if m.lower_is_better then mb -. ma else ma -. mb) /. ma in
            let verdict =
              if change > m.bound then (incr regressions; "WORSE")
              else if change < -.m.bound then "better"
              else "within bound"
            in
            Printf.printf "%-12s %-15s %12.6g %12.6g %+7.2f%% %6.1f%% %8s %8s  %s\n" workload
              m.name ma mb (100. *. change) (100. *. m.bound) (spread_cell va) (spread_cell vb)
              verdict
          end)
        e2e;
      let va = values a ~workload ~traced:false p99 and vb = values b ~workload ~traced:false p99 in
      if Array.length va > 0 && Array.length vb > 0 then
        Printf.printf "%-12s %-15s %12.6g %12.6g %+7.2f%% %7s %8s %8s  %s\n" workload p99
          (Stats.median va) (Stats.median vb)
          (100. *. ((Stats.median vb /. Stats.median va) -. 1.))
          "-" (spread_cell va) (spread_cell vb) "reported, not gated";
      let untraced = values b ~workload ~traced:false "latency_p50_ms"
      and traced = values b ~workload ~traced:true "bench.traced.latency_p50_ms" in
      if Array.length untraced > 0 && Array.length traced > 0 then
        Printf.printf "%-12s tracing overhead on latency_p50_ms (B): %+.2f%%\n" workload
          (100. *. ((Stats.median traced /. Stats.median untraced) -. 1.)))
    workloads;
  if !regressions > 0 then begin
    Printf.printf "%d metric(s) outside their bound\n" !regressions;
    exit 1
  end

let () =
  let bench = ref "BENCHMARK.json" and validate_trace = ref "" and args = ref [] in
  Arg.parse
    [
      ("--benchmark", Arg.Set_string bench, "FILE  benchmark definition (default BENCHMARK.json)");
      ("--validate", Arg.Set_string validate_trace, "0|1  validate captured outputs");
    ]
    (fun a -> args := a :: !args)
    "compare.exe [--benchmark FILE] A B | compare.exe [--benchmark FILE] --validate 0|1 OUT...";
  let bench = Json.of_file !bench in
  match (!validate_trace, List.rev !args) with
  | "", [ a; b ] -> compare_sets bench a b
  | ("0" | "1"), (_ :: _ as files) -> validate bench (!validate_trace = "1") files
  | _ -> fail "expected A B, or --validate 0|1 OUT..."
