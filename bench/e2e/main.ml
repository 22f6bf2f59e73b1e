(* End-to-end benchmark: one workload per process, closed loop, one
   client.

     main.exe --workload serve-hot --seed 3 --seconds 25 --trace 0

   The last line of stdout is the result:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the workload re-times
   each request's layers after the request returned and the metrics are
   the per-layer ones (layers a workload does not exercise read 0).
   --out FILE also writes a run record for compare.exe; --spans FILE
   writes the traced run's spans as JSON lines.  Exit code 1 when a check
   failed, 2 on bad arguments. *)

open Lk_e2e

type workload = {
  name : string;
  span_names : string list;
  run : Loop.config -> Loop.outcome;
  layer_metrics : Span.recorder -> (string * float) list;
}

let workloads =
  [
    {
      name = "serve-hot";
      span_names = Serve_wl.span_names;
      run = Serve_wl.run Serve_wl.hot ~name:"serve-hot";
      layer_metrics = Serve_wl.layer_metrics;
    };
    {
      name = "serve-churn";
      span_names = Serve_wl.span_names;
      run = Serve_wl.run Serve_wl.churn ~name:"serve-churn";
      layer_metrics = Serve_wl.layer_metrics;
    };
    {
      name = Cold_wl.name;
      span_names = Cold_wl.span_names;
      run = Cold_wl.run;
      layer_metrics = Cold_wl.layer_metrics;
    };
    {
      name = Count_wl.name;
      span_names = Count_wl.span_names;
      run = Count_wl.run;
      layer_metrics = Count_wl.layer_metrics;
    };
  ]

(* Metric names and units; BENCHMARK.json lists the same names, and the
   runtest rule checks that the two agree.  The p99 is reported (stderr
   and --out) but is not one of them: on a shared machine its run-to-run
   spread exceeds any bound the benchmark may set (README.md). *)
let end_to_end =
  [
    ("latency_p50_ms", "ms");
    ("ops_per_s", "1/s");
    ("setup_s", "s");
    ("rss_peak_mb", "MiB");
  ]

let traced_p50 = "bench.traced.latency_p50_ms"

let per_layer =
  [
    ("serve.server.self_us", "us");
    ("parallel.engine.dispatch_us", "us");
    ("serve.batch.answer_us", "us");
    ("serve.batch.ns_per_answer", "ns");
    ("lcakp.lca_kp.prepare_us", "us");
    ("lcakp.lca_kp.prepares_per_batch", "count");
    ("lcakp.lca_kp.memo_hit_rate", "ratio");
    ("serve.pool.hit_rate", "ratio");
    ("serve.pool.evictions_per_batch", "count");
    ("serve.server.groups_per_batch", "count");
    ("oracle.counters.index_queries_per_answer", "count");
    ("knapsack.instance.digest_us", "us");
    ("oracle.access.of_instance_us", "us");
    ("stats.alias.create_us", "us");
    ("lcakp.tilde.build_us", "us");
    ("lcakp.eps.compute_us", "us");
    ("oracle.access.ns_per_sample", "ns");
    ("lcakp.convert_greedy.run_us", "us");
    ("lcakp.tilde.samples_per_build", "count");
    ("counting.robp.build_us", "us");
    ("counting.gkm.count_in_us", "us");
    ("counting.gkm.self_us", "us");
    ("counting.gkm.width", "count");
    ("counting.gkm.merges", "count");
    ("oracle.counters.queries_per_count", "count");
    (traced_p50, "ms");
  ]

(* Median latency (ms) over the quietest twentieth of the run, slices
   ranked by their median. *)
let p50_ms (o : Loop.outcome) =
  Stats.median_sorted (Stats.sorted (Stats.quietest ~by:Stats.median o.latencies_ns)) /. 1e6

let end_to_end_values (o : Loop.outcome) =
  (* slices ranked by their mean, so that the rate keeps the slow requests
     (collections, rare expensive paths) a median passes over *)
  let quiet = Stats.quietest ~by:Stats.mean o.latencies_ns in
  [
    ("latency_p50_ms", p50_ms o);
    ("ops_per_s", float_of_int o.ops_per_request /. (Stats.mean quiet /. 1e9));
    ("setup_s", Stats.median (Stats.fastest_third o.setup_times_s));
    ("rss_peak_mb", o.rss_peak_mb);
  ]

let layer_values wl r (o : Loop.outcome) =
  let measured = (traced_p50, p50_ms o) :: wl.layer_metrics r in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer) then failwith ("undeclared layer metric " ^ name))
    measured;
  List.map
    (fun (name, _) -> (name, Option.value ~default:0. (List.assoc_opt name measured)))
    per_layer

let result_json ~units (o : Loop.outcome) values =
  let module J = Lk_benchkit.Json in
  J.Obj
    [
      ("correct", J.Bool (o.failed = 0));
      ("attempted", J.Num (float_of_int (Array.length o.latencies_ns)));
      ("failed", J.Num (float_of_int o.failed));
      ( "metrics",
        J.Obj
          (List.map
             (fun (name, v) ->
               (name, J.Obj [ ("value", J.Num v); ("unit", J.Str (List.assoc name units)) ]))
             values) );
    ]

let usage =
  "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE] \
   [--spans FILE]"

let () =
  let workload = ref "" and seed = ref "1" and seconds = ref nan and trace = ref "0" in
  let smoke = ref false and out = ref "" and spans = ref "" in
  let bad msg =
    prerr_endline ("main.exe: " ^ msg ^ "\nusage: " ^ usage);
    exit 2
  in
  (try
     Arg.parse_argv Sys.argv
       [
         ( "--workload",
           Arg.Set_string workload,
           "NAME  " ^ String.concat " | " (List.map (fun w -> w.name) workloads) );
         ("--seed", Arg.Set_string seed, "N  input seed (default 1)");
         ("--seconds", Arg.Set_float seconds, "S  length of the timed phase (default 25)");
         ("--trace", Arg.Set_string trace, "0|1  per-layer decomposition (default 0)");
         ("--smoke", Arg.Set smoke, "  tiny sizes; --seconds defaults to 0.3");
         ("--out", Arg.Set_string out, "FILE  also write a run record for compare.exe");
         ("--spans", Arg.Set_string spans, "FILE  traced run: write the spans as JSON lines");
       ]
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with
  | Arg.Bad msg -> bad (List.hd (String.split_on_char '\n' msg))
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> bad (Printf.sprintf "unknown workload %S" !workload)
  in
  let seed = match Int64.of_string_opt !seed with Some s -> s | None -> bad "bad --seed" in
  let traced =
    match !trace with "0" -> false | "1" -> true | _ -> bad "--trace takes 0 or 1"
  in
  let seconds =
    if Float.is_nan !seconds then if !smoke then 0.3 else 25.
    else if !seconds > 0. then !seconds
    else bad "--seconds must be positive"
  in
  if !spans <> "" && not traced then bad "--spans needs --trace 1";
  let tracer =
    if traced then Some (Span.recorder ~workload:wl.name ~names:wl.span_names ~keep:(!spans <> ""))
    else None
  in
  let outcome = wl.run { Loop.seed; seconds; smoke = !smoke; tracer } in
  let values, units =
    match tracer with
    | None -> (end_to_end_values outcome, end_to_end)
    | Some r -> (layer_values wl r outcome, per_layer)
  in
  let result = result_json ~units outcome values in
  let n = Array.length outcome.latencies_ns in
  let sorted = Stats.sorted outcome.latencies_ns in
  let at permille = Stats.percentile sorted ~permille /. 1e6 in
  let tail = Stats.supported_tail n in
  Printf.eprintf "%s: %d requests, %d failed, p50 %.4g ms, p99 %.4g ms, inputs %.1f MiB, %s\n%!"
    wl.name n outcome.failed (at 500) (at 990) outcome.rss_inputs_mb
    (match tail with
    | Some pm -> Printf.sprintf "highest percentile with >= 10 beyond: p%g = %.4g ms" (float_of_int pm /. 10.) (at pm)
    | None -> "fewer than 20 requests");
  (match tracer with Some r when !spans <> "" -> Span.write r !spans | _ -> ());
  if !out <> "" then
    Lk_benchkit.Json.(
      write_file !out
        (Obj
           [
             ("schema", Str "lca-knapsack-e2e/1");
             ("workload", Str wl.name);
             ("seed", Str (Int64.to_string seed));
             ("seconds", Num seconds);
             ("trace", Bool traced);
             ("smoke", Bool !smoke);
             ("requests", Num (float_of_int n));
             ("latency_p99_ms", Num (at 990));
             ("latency_p50_all_ms", Num (at 500));
             ("rss_inputs_mb", Num outcome.rss_inputs_mb);
             ("setup_times_s", Arr (Array.to_list (Array.map (fun s -> Num s) outcome.setup_times_s)));
             ( "tail",
               match tail with
               | Some pm -> Obj [ ("permille", Num (float_of_int pm)); ("ms", Num (at pm)) ]
               | None -> Null );
             ("result", result);
           ]));
  print_endline (Line.to_string result);
  if outcome.failed > 0 then exit 1
