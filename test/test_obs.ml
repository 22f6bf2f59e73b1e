(* Tests for lib/obs: ring semantics, event serialization, sink/facade
   behavior, trace documents, and the determinism contracts the subsystem
   exists to check — equal (params, seed) runs produce identical
   event lists, and the engine's merged trace (drop count included) is
   invariant to the jobs count (DESIGN.md §10). *)

module Rng = Lk_util.Rng
module Event = Lk_obs.Event
module Ring = Lk_obs.Ring
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

(* ---------- Sink / Obs facade ---------- *)

let test_null_sink_is_inert () =
  Alcotest.(check bool) "disabled" false (Obs.enabled Obs.null);
  Obs.emit_index_query Obs.null 3;
  Obs.emit_rng_split Obs.null "r";
  Alcotest.(check int) "phase passes value through" 7
    (Obs.phase Obs.null "p" (fun () -> 7));
  Alcotest.(check (list event)) "no events" [] (Obs.events Obs.null)

let test_recorder_records () =
  let s = Obs.recorder () in
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
  Alcotest.(check int) "nothing dropped" 0 (Obs.dropped s)

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
  let t = Trace.make ~label:"unit" ~argv:[ "e1"; "--quick" ] ~dropped:3 events in
  let path = Filename.concat (Filename.get_temp_dir_name ()) "obs_unit.trace.json" in
  Trace.save path t;
  let first = Json.to_string (Trace.to_json t) in
  Trace.save path t;
  (match Trace.load path with
  | Ok t' ->
      Alcotest.(check bool) "events survive" true (Trace.equal_events t t');
      Alcotest.(check int) "dropped survives" 3 (Trace.dropped t');
      Alcotest.(check (list string)) "argv survives" [ "e1"; "--quick" ] (Trace.argv t');
      Alcotest.(check string) "byte-stable serialization" first
        (Json.to_string (Trace.to_json t'))
  | Error m -> Alcotest.fail m);
  Sys.remove path;
  (match Trace.load path with
  | Ok _ -> Alcotest.fail "load of a missing file must not succeed"
  | Error _ -> ())

(* verify re-runs argv through a shell quote, so every element must come
   back from the file exactly: spaces, quotes, escapes, non-ASCII bytes. *)
let test_trace_argv_exact () =
  let argv =
    [ "e1 e3"; "\"quoted\""; "it's"; "back\\slash"; "tab\tnew\nline"; "caf\xc3\xa9";
      "\xff\xfe"; ""; "--" ]
  in
  let t = Trace.make ~label:"unit" ~argv [] in
  match Trace.of_json (Json.parse (Json.to_string (Trace.to_json t))) with
  | Ok t' -> Alcotest.(check (list string)) "argv kept exactly, in order" argv (Trace.argv t')
  | Error m -> Alcotest.fail m

(* Every load error names the file once, in front of the reason. *)
let test_trace_load_errors () =
  let path = Filename.temp_file "obs_unit" ".trace.json" in
  let error_of contents =
    Out_channel.with_open_bin path (fun oc -> output_string oc contents);
    match Trace.load path with Ok _ -> "<loaded>" | Error m -> m
  in
  Alcotest.(check string) "malformed bytes"
    (path ^ ": expected a number (at offset 0)") (error_of "oops");
  Alcotest.(check string) "wrong schema"
    (path ^ ": trace: unsupported schema \"lca-knapsack-trace/1\"")
    (error_of {|{"schema": "lca-knapsack-trace/1", "label": "x", "meta": {}}|});
  Sys.remove path;
  Alcotest.(check string) "missing file" (path ^ ": No such file or directory")
    (match Trace.load path with Ok _ -> "<loaded>" | Error m -> m)

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

(* Each trial overflows its default-capacity ring by 5 events.  The
   parent ring is large enough to hold both merged streams, so every drop
   it reports was carried over from a trial ring. *)
let test_run_traced_carries_trial_drops () =
  let per_trial = Obs.default_capacity + 5 in
  List.iter
    (fun jobs ->
      let sink = Obs.recorder ~capacity:(4 * Obs.default_capacity) () in
      ignore
        (Engine.run_traced ~jobs ~sink ~base:(Rng.create 3L) ~trials:2
           (fun ~index:_ ~rng:_ ~sink ->
             for i = 0 to per_trial - 1 do
               Obs.emit_index_query sink i
             done));
      Alcotest.(check int) (Printf.sprintf "jobs=%d: dropped" jobs) 10 (Obs.dropped sink);
      (* Per trial, the index queries between its brackets, in order. *)
      let kept = Array.make 2 [] and current = ref (-1) in
      List.iter
        (function
          | Event.Trial_start i -> current := i
          | Event.Trial_end _ -> current := -1
          | Event.Oracle_query (Event.Index_query q) ->
              kept.(!current) <- q :: kept.(!current)
          | _ -> ())
        (Obs.events sink);
      Array.iteri
        (fun i qs ->
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d: trial %d keeps its last %d indices" jobs i
               Obs.default_capacity)
            true
            (List.rev qs = List.init Obs.default_capacity (fun j -> j + 5)))
        kept)
    [ 1; 2 ]

let test_run_traced_disabled_passthrough () =
  let base = Rng.create 77L in
  let via_run = Engine.run ~jobs:2 ~base ~trials:5 (fun ~index ~rng -> (index, Rng.int_bound rng 10)) in
  let via_traced =
    Engine.run_traced ~jobs:2 ~sink:Obs.null ~base ~trials:5 (fun ~index ~rng ~sink ->
        (Obs.enabled sink, (index, Rng.int_bound rng 10)))
  in
  (* Checked on the main domain: Alcotest's reporting is not domain-safe,
     and a check inside a worker trial can fail on its own queue. *)
  Alcotest.(check (array bool)) "trial sinks disabled" (Array.make 5 false)
    (Array.map fst via_traced);
  Alcotest.(check (array (pair int int))) "same results" via_run (Array.map snd via_traced)

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
      ( "sink",
        [
          Alcotest.test_case "null is inert" `Quick test_null_sink_is_inert;
          Alcotest.test_case "recorder + meters" `Quick test_recorder_records;
          Alcotest.test_case "phase exit on exception" `Quick test_phase_exit_on_exception;
        ] );
      ( "trace",
        [
          Alcotest.test_case "save/load byte-stable" `Quick test_trace_save_load_byte_stable;
          Alcotest.test_case "argv round trip exact" `Quick test_trace_argv_exact;
          Alcotest.test_case "load errors name the file once" `Quick test_trace_load_errors;
          Alcotest.test_case "first divergence" `Quick test_trace_divergence;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest prop_equal_seeds_equal_traces;
          Alcotest.test_case "phases + partition" `Quick test_run_phases_and_partition;
          Alcotest.test_case "run_traced jobs 1/2/4" `Quick test_run_traced_jobs_invariant;
          Alcotest.test_case "run_traced carries trial-ring drops" `Quick
            test_run_traced_carries_trial_drops;
          Alcotest.test_case "run_traced disabled = run" `Quick test_run_traced_disabled_passthrough;
        ] );
    ]
