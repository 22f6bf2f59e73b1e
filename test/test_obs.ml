(* Tests for lib/obs: ring semantics, event serialization, the metrics
   registry, sink/facade behavior, trace documents, and the determinism
   contracts the subsystem exists to check — equal (params digest, seed)
   runs produce identical event lists, and the engine's merged trace is
   invariant to the jobs count (DESIGN.md §10). *)

module Rng = Lk_util.Rng
module Event = Lk_obs.Event
module Ring = Lk_obs.Ring
module Metrics = Lk_obs.Metrics
module Obs = Lk_obs.Obs
module Trace = Lk_obs.Trace
module Json = Lk_benchkit.Json
module Engine = Lk_parallel.Engine
module Access = Lk_oracle.Access
module Gen = Lk_workloads.Gen
module Params = Lk_lcakp.Params
module Lca_kp = Lk_lcakp.Lca_kp

let event = Alcotest.testable (fun fmt e -> Format.pp_print_string fmt (Event.to_string e)) Event.equal

(* ---------- Ring ---------- *)

let test_ring_basic () =
  let r = Ring.create ~capacity:3 in
  Alcotest.(check (list int)) "empty" [] (Ring.to_list r);
  Ring.push r 1;
  Ring.push r 2;
  Alcotest.(check (list int)) "fifo" [ 1; 2 ] (Ring.to_list r);
  Ring.push r 3;
  Ring.push r 4;
  Alcotest.(check (list int)) "oldest overwritten" [ 2; 3; 4 ] (Ring.to_list r);
  Alcotest.(check int) "dropped counted" 1 (Ring.dropped r);
  Ring.clear r;
  Alcotest.(check (list int)) "clear" [] (Ring.to_list r);
  Alcotest.(check int) "clear resets dropped" 0 (Ring.dropped r)

let test_ring_capacity_one () =
  let r = Ring.create ~capacity:1 in
  for i = 1 to 5 do Ring.push r i done;
  Alcotest.(check (list int)) "keeps newest" [ 5 ] (Ring.to_list r);
  Alcotest.(check int) "dropped" 4 (Ring.dropped r);
  Alcotest.check_raises "capacity >= 1"
    (Invalid_argument "Ring.create: capacity must be >= 1") (fun () ->
      ignore (Ring.create ~capacity:0))

(* ---------- Event ---------- *)

let all_event_shapes =
  [
    Event.Oracle_query (Event.Index_query 7);
    Event.Oracle_query (Event.Weighted_sample 0);
    Event.Oracle_query (Event.Weighted_batch 4096);
    Event.Rng_split "trial-9";
    Event.Phase_enter "tilde-build";
    Event.Phase_exit "tilde-build";
    Event.Trial_start 0;
    Event.Trial_end 41;
    Event.Partition { large = 5; buckets = 12; samples = 999 };
  ]

let test_event_roundtrip () =
  List.iter
    (fun e ->
      match Event.of_json (Event.to_json e) with
      | Ok e' -> Alcotest.check event "roundtrip" e e'
      | Error m -> Alcotest.failf "%s: %s" (Event.to_string e) m)
    all_event_shapes;
  Alcotest.(check bool) "malformed rejected" true
    (Result.is_error (Event.of_json (Json.Obj [ ("t", Json.Str "nonsense") ])))

let event_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Event.Oracle_query (Event.Index_query i)) nat;
        map (fun i -> Event.Oracle_query (Event.Weighted_sample i)) nat;
        map (fun k -> Event.Oracle_query (Event.Weighted_batch k)) nat;
        map (fun s -> Event.Rng_split s) (string_size (int_range 0 12));
        map (fun s -> Event.Phase_enter s) (string_size (int_range 0 12));
        map (fun s -> Event.Phase_exit s) (string_size (int_range 0 12));
        map (fun i -> Event.Trial_start i) nat;
        map (fun i -> Event.Trial_end i) nat;
        map3
          (fun large buckets samples -> Event.Partition { large; buckets; samples })
          nat nat nat;
      ])

let prop_event_json_roundtrip =
  QCheck.Test.make ~name:"event json roundtrip (also through the printer)" ~count:300
    (QCheck.make ~print:Event.to_string event_gen)
    (fun e ->
      match Event.of_json (Json.parse (Json.to_string (Event.to_json e))) with
      | Ok e' -> Event.equal e e'
      | Error _ -> false)

(* ---------- Metrics ---------- *)

let test_metrics_counter_gauge () =
  let m = Metrics.create () in
  Metrics.incr (Metrics.counter m "a");
  Metrics.incr ~by:4 (Metrics.counter m "a");
  Metrics.set (Metrics.gauge m "g") 2.5;
  let s = Metrics.snapshot m in
  Alcotest.(check (list (pair string int))) "counter" [ ("a", 5) ] s.Metrics.counters;
  Alcotest.(check (list (pair string (float 0.)))) "gauge" [ ("g", 2.5) ] s.Metrics.gauges;
  Alcotest.check_raises "negative incr rejected"
    (Invalid_argument "Metrics.incr: negative increment") (fun () ->
      Metrics.incr ~by:(-1) (Metrics.counter m "a"));
  Alcotest.check_raises "type clash"
    (Invalid_argument "Metrics: \"a\" already registered with another type")
    (fun () -> ignore (Metrics.gauge m "a"))

let test_metrics_histogram_buckets () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "h" in
  (* bucket 0: v < 1; bucket i >= 1: [2^(i-1), 2^i) *)
  List.iter (Metrics.observe h) [ 0.; 0.5; 1.; 1.5; 2.; 3.99; 4.; 1024. ];
  let s = Metrics.snapshot m in
  match s.Metrics.histograms with
  | [ ("h", hs) ] ->
      Alcotest.(check int) "count" 8 hs.Metrics.count;
      Alcotest.(check (list (pair int int)))
        "log-scaled buckets"
        [ (0, 2); (1, 2); (2, 2); (3, 1); (11, 1) ]
        hs.Metrics.nonzero;
      Alcotest.(check (float 0.)) "min" 0. hs.Metrics.min_v;
      Alcotest.(check (float 0.)) "max" 1024. hs.Metrics.max_v
  | _ -> Alcotest.fail "expected exactly one histogram"

let test_metrics_histogram_edges () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "edge" in
  Metrics.observe h 0.;
  Metrics.observe h 1.;
  (* max_int rounds to 2^62 as a float, landing in the last bucket *)
  Metrics.observe h (float_of_int max_int);
  let s = Metrics.snapshot m in
  (match s.Metrics.histograms with
  | [ ("edge", hs) ] ->
      Alcotest.(check (list (pair int int)))
        "extreme values bucket correctly"
        [ (0, 1); (1, 1); (Metrics.nbuckets - 1, 1) ]
        hs.Metrics.nonzero;
      Alcotest.(check int) "count" 3 hs.Metrics.count
  | _ -> Alcotest.fail "expected exactly one histogram");
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Metrics.observe: value must be non-negative") (fun () ->
      Metrics.observe h (-1.));
  Alcotest.check_raises "nan rejected"
    (Invalid_argument "Metrics.observe: value must be non-negative") (fun () ->
      Metrics.observe h Float.nan);
  (* rejected values must leave the histogram untouched *)
  let s' = Metrics.snapshot m in
  Alcotest.(check bool) "rejection leaves state unchanged" true (Metrics.equal s s')

let test_metrics_json_roundtrip_and_diff () =
  let m = Metrics.create () in
  Metrics.incr ~by:7 (Metrics.counter m "events");
  Metrics.set (Metrics.gauge m "dropped") 0.;
  Metrics.observe (Metrics.histogram m "batch") 16.;
  let s = Metrics.snapshot m in
  (match Metrics.of_json (Json.parse (Json.to_string (Metrics.to_json s))) with
  | Ok s' -> Alcotest.(check bool) "roundtrip" true (Metrics.equal s s')
  | Error e -> Alcotest.fail e);
  Metrics.incr ~by:3 (Metrics.counter m "events");
  Metrics.observe (Metrics.histogram m "batch") 16.;
  let s2 = Metrics.snapshot m in
  let d = Metrics.diff ~before:s ~after:s2 in
  Alcotest.(check (list (pair string int))) "counter delta" [ ("events", 3) ] d.Metrics.counters;
  (match d.Metrics.histograms with
  | [ ("batch", hs) ] -> Alcotest.(check int) "hist count delta" 1 hs.Metrics.count
  | _ -> Alcotest.fail "expected batch histogram in diff");
  (* the diff document itself round-trips byte-stably through JSON *)
  let bytes_of s = Json.to_string (Metrics.to_json s) in
  match Metrics.of_json (Json.parse (bytes_of d)) with
  | Ok d' ->
      Alcotest.(check bool) "diff roundtrips" true (Metrics.equal d d');
      Alcotest.(check string) "diff serialization byte-stable" (bytes_of d)
        (bytes_of d')
  | Error e -> Alcotest.fail e

(* ---------- Sink / Obs facade ---------- *)

let test_null_sink_is_inert () =
  Alcotest.(check bool) "disabled" false (Obs.enabled Obs.null);
  Obs.emit_index_query Obs.null 3;
  Obs.emit_rng_split Obs.null "r";
  Alcotest.(check int) "phase passes value through" 7
    (Obs.phase Obs.null "p" (fun () -> 7));
  Alcotest.(check (list event)) "no events" [] (Obs.events Obs.null)

let test_recorder_records_and_meters () =
  let m = Metrics.create () in
  let s = Obs.recorder ~metrics:m () in
  Obs.emit_index_query s 3;
  Obs.emit_weighted_sample s 1;
  Obs.emit_weighted_batch s 10;
  Obs.emit_rng_split s "trial-2";
  ignore (Obs.phase s "work" (fun () -> 0));
  Alcotest.(check (list event)) "event order"
    [
      Event.Oracle_query (Event.Index_query 3);
      Event.Oracle_query (Event.Weighted_sample 1);
      Event.Oracle_query (Event.Weighted_batch 10);
      Event.Rng_split "trial-2";
      Event.Phase_enter "work";
      Event.Phase_exit "work";
    ]
    (Obs.events s);
  let snap = Metrics.snapshot m in
  let counter name = List.assoc name snap.Metrics.counters in
  Alcotest.(check int) "obs.events" 6 (counter "obs.events");
  Alcotest.(check int) "index queries metered" 1 (counter "oracle.index_queries");
  (* a batch of k counts as k weighted samples, like the counters *)
  Alcotest.(check int) "batch metered by size" 11 (counter "oracle.weighted_samples");
  Alcotest.(check int) "rng splits" 1 (counter "rng.splits");
  Alcotest.(check int) "phase enters" 1 (counter "phase.enters")

let test_phase_exit_on_exception () =
  let s = Obs.recorder () in
  (try Obs.phase s "boom" (fun () -> raise Exit) with Exit -> ());
  Alcotest.(check (list event)) "bracket closed despite the raise"
    [ Event.Phase_enter "boom"; Event.Phase_exit "boom" ]
    (Obs.events s)

(* ---------- Trace documents ---------- *)

let test_trace_save_load_byte_stable () =
  let events =
    [ Event.Trial_start 0; Event.Oracle_query (Event.Index_query 5); Event.Trial_end 0 ]
  in
  let t = Trace.make ~label:"unit" ~meta:[ ("b", "2"); ("a", "1") ] ~dropped:3 events in
  Alcotest.(check (list (pair string string))) "meta sorted"
    [ ("a", "1"); ("b", "2") ] (Trace.meta t);
  let path = Filename.concat (Filename.get_temp_dir_name ()) "obs_unit.trace.json" in
  Trace.save path t;
  let first = Json.to_string (Trace.to_json t) in
  Trace.save path t;
  (match Trace.load path with
  | Ok t' ->
      Alcotest.(check bool) "events survive" true (Trace.equal_events t t');
      Alcotest.(check int) "dropped survives" 3 (Trace.dropped t');
      Alcotest.(check string) "byte-stable serialization" first
        (Json.to_string (Trace.to_json t'))
  | Error m -> Alcotest.fail m);
  Sys.remove path;
  (match Trace.load path with
  | Ok _ -> Alcotest.fail "load of a missing file must not succeed"
  | Error _ -> ())

let test_trace_divergence () =
  let mk events = Trace.make ~label:"x" events in
  let a = mk [ Event.Rng_split "r"; Event.Trial_start 1 ] in
  Alcotest.(check bool) "equal streams" true
    (Option.is_none (Trace.first_divergence ~recorded:a ~replayed:(mk [ Event.Rng_split "r"; Event.Trial_start 1 ])));
  (match Trace.first_divergence ~recorded:a ~replayed:(mk [ Event.Rng_split "r"; Event.Trial_start 2 ]) with
  | Some d -> Alcotest.(check int) "diverges at 1" 1 d.Trace.index
  | None -> Alcotest.fail "expected divergence");
  match Trace.first_divergence ~recorded:a ~replayed:(mk [ Event.Rng_split "r" ]) with
  | Some d ->
      Alcotest.(check int) "short stream ends" 1 d.Trace.index;
      Alcotest.(check bool) "replayed side ended" true (Option.is_none d.Trace.replayed)
  | None -> Alcotest.fail "expected divergence on length"

(* ---------- determinism of instrumented runs ---------- *)

let traced_run ~gen_seed ~seed ~fresh_seed =
  let sink = Obs.recorder () in
  let inst = Gen.generate Gen.Garbage_mix (Rng.create gen_seed) ~n:400 in
  let access = Access.of_instance ~sink inst in
  let params = Params.practical ~sample_scale:0.02 0.2 in
  let algo = Lca_kp.create params access ~seed in
  ignore (Lca_kp.run algo ~fresh:(Rng.create fresh_seed));
  Obs.events sink

let prop_equal_seeds_equal_traces =
  QCheck.Test.make ~name:"equal (params digest, seed) runs emit identical event lists"
    ~count:20
    QCheck.(pair small_nat small_nat)
    (fun (s1, s2) ->
      let gen_seed = Int64.of_int (s1 + 1) and fresh_seed = Int64.of_int (s2 + 1) in
      let a = traced_run ~gen_seed ~seed:5L ~fresh_seed in
      let b = traced_run ~gen_seed ~seed:5L ~fresh_seed in
      List.length a > 0 && List.equal Event.equal a b)

let test_run_phases_and_partition () =
  let events = traced_run ~gen_seed:1L ~seed:5L ~fresh_seed:2L in
  let labels = List.map Event.label events in
  Alcotest.(check bool) "tilde-build bracketed" true
    (List.mem "phase.enter" labels && List.mem "phase.exit" labels);
  Alcotest.(check int) "exactly one partition event" 1
    (List.length (List.filter (fun e -> Event.label e = "partition") events))

(* ---------- engine merge invariance ---------- *)

let merged_trace ~jobs =
  let sink = Obs.recorder () in
  let base = Rng.create 77L in
  ignore
    (Engine.run_traced ~jobs ~sink ~base ~trials:9 (fun ~index ~rng ~sink ->
         let draws = 1 + (index mod 3) in
         for _ = 1 to draws do
           Obs.emit_index_query sink (Rng.int_bound rng 100)
         done;
         draws));
  Obs.events sink

let test_run_traced_jobs_invariant () =
  let reference = merged_trace ~jobs:1 in
  Alcotest.(check bool) "trace non-trivial" true (List.length reference > 27);
  List.iter
    (fun jobs ->
      Alcotest.(check (list event))
        (Printf.sprintf "jobs=%d merges identically" jobs)
        reference (merged_trace ~jobs))
    [ 2; 4 ];
  (* trial brackets appear in index order *)
  let starts =
    List.filter_map
      (function Event.Trial_start i -> Some i | _ -> None)
      reference
  in
  Alcotest.(check (list int)) "index-ordered" [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ] starts

let test_run_traced_disabled_passthrough () =
  let base = Rng.create 77L in
  let via_run = Engine.run ~jobs:2 ~base ~trials:5 (fun ~index ~rng -> (index, Rng.int_bound rng 10)) in
  let via_traced =
    Engine.run_traced ~jobs:2 ~sink:Obs.null ~base ~trials:5 (fun ~index ~rng ~sink ->
        Alcotest.(check bool) "trial sink disabled" false (Obs.enabled sink);
        (index, Rng.int_bound rng 10))
  in
  Alcotest.(check (array (pair int int))) "same results" via_run via_traced

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "push/overwrite/clear" `Quick test_ring_basic;
          Alcotest.test_case "capacity one" `Quick test_ring_capacity_one;
        ] );
      ( "event",
        [
          Alcotest.test_case "json roundtrip" `Quick test_event_roundtrip;
          QCheck_alcotest.to_alcotest prop_event_json_roundtrip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick test_metrics_counter_gauge;
          Alcotest.test_case "histogram buckets" `Quick test_metrics_histogram_buckets;
          Alcotest.test_case "histogram edge values" `Quick test_metrics_histogram_edges;
          Alcotest.test_case "json roundtrip + diff" `Quick test_metrics_json_roundtrip_and_diff;
        ] );
      ( "sink",
        [
          Alcotest.test_case "null is inert" `Quick test_null_sink_is_inert;
          Alcotest.test_case "recorder + meters" `Quick test_recorder_records_and_meters;
          Alcotest.test_case "phase exit on exception" `Quick test_phase_exit_on_exception;
        ] );
      ( "trace",
        [
          Alcotest.test_case "save/load byte-stable" `Quick test_trace_save_load_byte_stable;
          Alcotest.test_case "first divergence" `Quick test_trace_divergence;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest prop_equal_seeds_equal_traces;
          Alcotest.test_case "phases + partition" `Quick test_run_phases_and_partition;
          Alcotest.test_case "run_traced jobs 1/2/4" `Quick test_run_traced_jobs_invariant;
          Alcotest.test_case "run_traced disabled = run" `Quick test_run_traced_disabled_passthrough;
        ] );
    ]
