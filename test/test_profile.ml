(* Tests for lib/profile: span-tree reconstruction (balanced and
   malformed streams), profile aggregation and its byte-stable JSON,
   jobs-invariance of profiles derived from the parallel engine's merged
   stream, the three exporters (Perfetto schema shape, folded flamegraph
   text, OpenMetrics exposition), and the obs_gate comparison logic. *)

module Rng = Lk_util.Rng
module Event = Lk_obs.Event
module Obs = Lk_obs.Obs
module Metrics = Lk_obs.Metrics
module Trace = Lk_obs.Trace
module Json = Lk_benchkit.Json
module Engine = Lk_parallel.Engine
module Span = Lk_profile.Span
module Profile = Lk_profile.Profile
module Export = Lk_profile.Export

let iq i = Event.Oracle_query (Event.Index_query i)
let ws i = Event.Oracle_query (Event.Weighted_sample i)

(* ---------- span reconstruction ---------- *)

let balanced_events =
  [
    iq 1;
    Event.Phase_enter "a";
    ws 2;
    Event.Trial_start 0;
    ws 3;
    Event.Oracle_query (Event.Weighted_batch 5);
    Event.Trial_end 0;
    Event.Partition { large = 1; buckets = 2; samples = 3 };
    Event.Phase_exit "a";
    Event.Rng_split "tail";
  ]

let test_span_balanced () =
  let root, issues = Span.of_events balanced_events in
  Alcotest.(check (list string)) "no issues" [] issues;
  Alcotest.(check string) "root name" "root" root.Span.name;
  Alcotest.(check int) "root covers stream" 10 root.Span.stop;
  Alcotest.(check int) "root self: iq + rng_split" 2 root.Span.self.Span.events;
  Alcotest.(check int) "root total events" 6 root.Span.total.Span.events;
  Alcotest.(check int) "root total queries" 8 (Span.queries root.Span.total);
  match root.Span.children with
  | [ a ] -> (
      Alcotest.(check string) "child phase" "a" (Span.display_name a);
      Alcotest.(check int) "a starts at its bracket" 1 a.Span.start;
      Alcotest.(check int) "a stops past its bracket" 9 a.Span.stop;
      Alcotest.(check int) "a self: ws + partition" 2 a.Span.self.Span.events;
      Alcotest.(check int) "a self queries" 1 (Span.queries a.Span.self);
      Alcotest.(check int) "a total queries" 7 (Span.queries a.Span.total);
      match a.Span.children with
      | [ t ] ->
          Alcotest.(check string) "trial display name" "trial-0" (Span.display_name t);
          Alcotest.(check (option int)) "trial index" (Some 0) t.Span.trial;
          (* a batch of 5 counts as 5 weighted samples, like the counters *)
          Alcotest.(check int) "trial queries" 6 (Span.queries t.Span.total)
      | l -> Alcotest.failf "expected one trial under 'a', got %d" (List.length l))
  | l -> Alcotest.failf "expected one child of root, got %d" (List.length l)

let test_span_unbalanced () =
  (* mismatched exit name: ignored with an issue, 'a' closed at stream end *)
  let _, issues = Span.of_events [ Event.Phase_enter "a"; Event.Phase_exit "b" ] in
  Alcotest.(check int) "mismatch + never-closed" 2 (List.length issues);
  (* exit with no open bracket *)
  let root, issues = Span.of_events [ Event.Phase_exit "x"; iq 0 ] in
  Alcotest.(check int) "stray exit reported" 1 (List.length issues);
  Alcotest.(check int) "cost still attributed" 1 (Span.queries root.Span.total);
  (* trial_end closing the wrong trial *)
  let _, issues =
    Span.of_events [ Event.Trial_start 3; Event.Trial_end 4; Event.Trial_end 3 ]
  in
  Alcotest.(check int) "wrong-index trial_end reported" 1 (List.length issues);
  (* empty stream: a bare balanced root *)
  let root, issues = Span.of_events [] in
  Alcotest.(check (list string)) "empty stream balanced" [] issues;
  Alcotest.(check (list pass)) "no children" [] root.Span.children

(* ---------- profile aggregation ---------- *)

let test_profile_aggregation () =
  let events =
    [
      Event.Phase_enter "p";
      iq 0;
      Event.Phase_exit "p";
      Event.Phase_enter "p";
      iq 1;
      iq 2;
      Event.Phase_exit "p";
    ]
  in
  let p = Profile.of_events ~label:"unit" events in
  Alcotest.(check bool) "balanced" true (Profile.balanced p);
  Alcotest.(check (list string)) "sorted paths" [ "root"; "root;p" ]
    (List.map (fun r -> r.Profile.path) p.Profile.rows);
  let row = List.nth p.Profile.rows 1 in
  Alcotest.(check int) "both occurrences aggregated" 2 row.Profile.count;
  Alcotest.(check int) "summed self queries" 3 (Span.queries row.Profile.self);
  Alcotest.(check bool) "no trials, no quantiles" true
    (p.Profile.trial_queries = None)

let trial_events queries_per_trial =
  List.concat
    (List.mapi
       (fun i q ->
         [ Event.Trial_start i ]
         @ List.init q (fun j -> iq j)
         @ [ Event.Trial_end i ])
       queries_per_trial)

let test_profile_trial_quantiles () =
  let p = Profile.of_events ~label:"unit" (trial_events [ 4; 1; 3; 2; 5 ]) in
  match p.Profile.trial_queries with
  | None -> Alcotest.fail "expected trial stats"
  | Some q ->
      Alcotest.(check int) "trials" 5 q.Profile.trials;
      Alcotest.(check int) "sum" 15 q.Profile.sum;
      Alcotest.(check int) "min" 1 q.Profile.min_q;
      Alcotest.(check int) "median" 3 q.Profile.q50;
      Alcotest.(check int) "max" 5 q.Profile.max_q

let profile_bytes p = Json.to_string (Profile.to_json p)

let test_profile_json_roundtrip () =
  let p = Profile.of_events ~label:"unit" balanced_events in
  match Profile.of_json (Json.parse (profile_bytes p)) with
  | Ok p' -> Alcotest.(check string) "byte-stable" (profile_bytes p) (profile_bytes p')
  | Error e -> Alcotest.fail e

(* qcheck: arbitrary (frequently malformed) streams never crash the
   profiler, and the profile JSON round-trips byte-stably. *)
let event_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> iq i) nat;
        map (fun i -> ws i) nat;
        map (fun k -> Event.Oracle_query (Event.Weighted_batch k)) nat;
        map3
          (fun large buckets samples -> Event.Partition { large; buckets; samples })
          nat nat nat;
        map (fun s -> Event.Rng_split s) (string_size (int_range 0 6));
        map (fun s -> Event.Phase_enter s) (string_size ~gen:(char_range 'a' 'c') (int_range 1 2));
        map (fun s -> Event.Phase_exit s) (string_size ~gen:(char_range 'a' 'c') (int_range 1 2));
        map (fun i -> Event.Trial_start i) (int_bound 3);
        map (fun i -> Event.Trial_end i) (int_bound 3);
      ])

let prop_profile_total_roundtrip =
  QCheck.Test.make
    ~name:"any stream profiles without raising; JSON round-trips byte-stably"
    ~count:200
    (QCheck.make
       ~print:(fun es -> String.concat "; " (List.map Event.to_string es))
       QCheck.Gen.(list_size (int_bound 40) event_gen))
    (fun events ->
      let p = Profile.of_events ~label:"prop" events in
      (* total cost conservation: the root row's total counts every
         non-bracket event exactly once, however brackets nest *)
      let brackets =
        List.length
          (List.filter
             (function
               | Event.Phase_enter _ | Event.Phase_exit _ | Event.Trial_start _
               | Event.Trial_end _ ->
                   true
               | _ -> false)
             events)
      in
      let root = List.find (fun r -> r.Profile.path = "root") p.Profile.rows in
      root.Profile.total.Span.events = List.length events - brackets
      &&
      match Profile.of_json (Json.parse (profile_bytes p)) with
      | Ok p' -> profile_bytes p = profile_bytes p'
      | Error _ -> false)

(* ---------- jobs invariance ---------- *)

let engine_profile ~seed ~jobs =
  let sink = Obs.recorder () in
  let base = Rng.create seed in
  ignore
    (Engine.run_traced ~jobs ~sink ~base ~trials:7 (fun ~index ~rng ~sink ->
         for _ = 0 to index mod 3 do
           Obs.emit_index_query sink (Rng.int_bound rng 50)
         done;
         index));
  Profile.of_events ~label:"engine" ~dropped:(Obs.dropped sink) (Obs.events sink)

let prop_profile_jobs_invariant =
  QCheck.Test.make
    ~name:"profiles of engine runs are byte-identical at jobs 1/2/4" ~count:10
    QCheck.small_nat
    (fun s ->
      let seed = Int64.of_int (s + 1) in
      let reference = profile_bytes (engine_profile ~seed ~jobs:1) in
      List.for_all
        (fun jobs -> profile_bytes (engine_profile ~seed ~jobs) = reference)
        [ 2; 4 ])

(* ---------- exporters ---------- *)

let mem key json =
  match Json.member key json with
  | Some v -> v
  | None -> Alcotest.failf "missing %S" key

let as_int what = function
  | Json.Num f when Float.is_integer f -> int_of_float f
  | _ -> Alcotest.failf "%s: expected integer" what

(* Perfetto schema validation: every traceEvents element is a complete
   ("X") duration event or a counter ("C") sample with the fields the
   trace-event format requires, on the synthetic event-index timebase. *)
let test_perfetto_schema () =
  let tr = Trace.make ~label:"unit" balanced_events in
  let json = Export.perfetto tr in
  let events =
    match mem "traceEvents" json with
    | Json.Arr l -> l
    | _ -> Alcotest.fail "traceEvents must be an array"
  in
  Alcotest.(check int) "3 spans + counter samples at their boundaries" 9
    (List.length events);
  let last_counter = ref 0 in
  List.iter
    (fun ev ->
      (match mem "name" ev with
      | Json.Str _ -> ()
      | _ -> Alcotest.fail "name must be a string");
      let ts = as_int "ts" (mem "ts" ev) in
      Alcotest.(check bool) "ts within stream" true (ts >= 0 && ts <= 10);
      ignore (as_int "pid" (mem "pid" ev));
      match mem "ph" ev with
      | Json.Str "X" ->
          let dur = as_int "dur" (mem "dur" ev) in
          Alcotest.(check bool) "dur positive" true (dur > 0);
          let args = mem "args" ev in
          let self = as_int "self" (mem "queries_self" args) in
          let total = as_int "total" (mem "queries_total" args) in
          Alcotest.(check bool) "self <= total" true (self <= total)
      | Json.Str "C" ->
          let v = as_int "counter" (mem "queries" (mem "args" ev)) in
          Alcotest.(check bool) "cumulative counter nondecreasing" true
            (v >= !last_counter);
          last_counter := v
      | _ -> Alcotest.fail "ph must be X or C")
    events;
  Alcotest.(check int) "final counter = total queries" 8 !last_counter;
  (* byte determinism of the export itself *)
  Alcotest.(check string) "export byte-stable" (Json.to_string json)
    (Json.to_string (Export.perfetto tr))

let test_folded () =
  let tr = Trace.make ~label:"unit" balanced_events in
  Alcotest.(check string) "folded stacks keyed by self queries"
    "root 1\nroot;a 1\nroot;a;trial 6\n" (Export.folded tr);
  (* zero-query rows are omitted entirely *)
  let quiet = Trace.make ~label:"unit" [ Event.Phase_enter "idle"; Event.Phase_exit "idle" ] in
  Alcotest.(check string) "all-zero profile folds to nothing" "" (Export.folded quiet)

let test_openmetrics () =
  let m = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter m "oracle.index_queries");
  Metrics.set (Metrics.gauge m "obs.dropped") 0.;
  let h = Metrics.histogram m "batch.size" in
  List.iter (Metrics.observe h) [ 0.5; 2.; 3. ];
  let text = Export.openmetrics (Metrics.snapshot m) in
  Alcotest.(check string) "exposition"
    ("# TYPE oracle_index_queries counter\n\
      oracle_index_queries_total 3\n\
      # TYPE obs_dropped gauge\n\
      obs_dropped 0\n\
      # TYPE batch_size histogram\n\
      batch_size_bucket{le=\"1\"} 1\n\
      batch_size_bucket{le=\"2\"} 1\n\
      batch_size_bucket{le=\"4\"} 3\n\
      batch_size_bucket{le=\"+Inf\"} 3\n\
      batch_size_sum 5.5\n\
      batch_size_count 3\n\
      # EOF\n")
    text

(* ---------- gate ---------- *)

let phase_profile ?(label = "unit") queries =
  Profile.of_events ~label
    ([ Event.Phase_enter "p" ] @ List.init queries (fun j -> iq j)
    @ [ Event.Phase_exit "p" ])

let test_gate_identical_and_drift () =
  let baseline = phase_profile 10 in
  let same = Profile.gate ~tolerance:0. ~baseline ~candidate:(phase_profile 10) in
  Alcotest.(check (list string)) "no missing" [] same.Profile.missing;
  Alcotest.(check (list string)) "no added" [] same.Profile.added;
  Alcotest.(check int) "no drift" 0 (List.length same.Profile.drifts);
  let drifted = Profile.gate ~tolerance:0. ~baseline ~candidate:(phase_profile 11) in
  Alcotest.(check bool) "one extra query drifts at 0%" true
    (List.length drifted.Profile.drifts > 0);
  List.iter
    (fun d ->
      Alcotest.(check bool) "drift names baseline/candidate values" true
        (d.Profile.baseline <> d.Profile.candidate))
    drifted.Profile.drifts;
  (* 10 -> 11 is a 10% change: within a 20% tolerance *)
  let tolerated =
    Profile.gate ~tolerance:0.2 ~baseline ~candidate:(phase_profile 11)
  in
  Alcotest.(check int) "tolerance absorbs it" 0 (List.length tolerated.Profile.drifts);
  (* the rendered report is deterministic and names the drifting field *)
  let report = Profile.render_comparison ~tolerance:0. drifted in
  Alcotest.(check bool) "report mentions DRIFT" true
    (String.length report > 0
    && List.exists
         (fun line ->
           String.length line >= 5 && String.sub line 0 5 = "DRIFT")
         (String.split_on_char '\n' report));
  Alcotest.(check string) "report byte-stable" report
    (Profile.render_comparison ~tolerance:0. drifted)

let test_gate_path_mismatch () =
  let baseline = phase_profile 5 in
  let candidate =
    Profile.of_events ~label:"unit"
      [ Event.Phase_enter "q"; iq 0; Event.Phase_exit "q" ]
  in
  let cmp = Profile.gate ~tolerance:0. ~baseline ~candidate in
  Alcotest.(check (list string)) "renamed phase missing" [ "root;p" ] cmp.Profile.missing;
  Alcotest.(check (list string)) "renamed phase added" [ "root;q" ] cmp.Profile.added

let test_gate_trial_presence_mismatch () =
  let baseline = Profile.of_events ~label:"unit" (trial_events [ 2; 3 ]) in
  let candidate = phase_profile 5 in
  let cmp = Profile.gate ~tolerance:0. ~baseline ~candidate in
  Alcotest.(check bool) "losing all trials is flagged" true
    (List.exists
       (fun d -> d.Profile.field = "trials.count" && d.Profile.candidate = 0)
       cmp.Profile.drifts)

(* label changes are cosmetic: the gate compares quantities only *)
let test_gate_ignores_label () =
  let baseline = phase_profile ~label:"a" 5 in
  let candidate = phase_profile ~label:"b" 5 in
  let cmp = Profile.gate ~tolerance:0. ~baseline ~candidate in
  Alcotest.(check int) "no drift across labels" 0 (List.length cmp.Profile.drifts)

let () =
  Alcotest.run "profile"
    [
      ( "span",
        [
          Alcotest.test_case "balanced stream" `Quick test_span_balanced;
          Alcotest.test_case "malformed streams report, don't raise" `Quick
            test_span_unbalanced;
        ] );
      ( "profile",
        [
          Alcotest.test_case "aggregation" `Quick test_profile_aggregation;
          Alcotest.test_case "trial quantiles" `Quick test_profile_trial_quantiles;
          Alcotest.test_case "json roundtrip" `Quick test_profile_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_profile_total_roundtrip;
          QCheck_alcotest.to_alcotest prop_profile_jobs_invariant;
        ] );
      ( "export",
        [
          Alcotest.test_case "perfetto schema" `Quick test_perfetto_schema;
          Alcotest.test_case "folded flamegraph" `Quick test_folded;
          Alcotest.test_case "openmetrics exposition" `Quick test_openmetrics;
        ] );
      ( "gate",
        [
          Alcotest.test_case "identical / drift / tolerance" `Quick
            test_gate_identical_and_drift;
          Alcotest.test_case "path mismatch" `Quick test_gate_path_mismatch;
          Alcotest.test_case "trial presence mismatch" `Quick
            test_gate_trial_presence_mismatch;
          Alcotest.test_case "label ignored" `Quick test_gate_ignores_label;
        ] );
    ]
