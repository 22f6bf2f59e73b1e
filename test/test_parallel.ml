(* Tests for lib/parallel: the deterministic multicore trial engine.

   The contract under test (DESIGN.md §8): for every [jobs], the engine
   returns exactly the serial fan-out [| f ~index:i ~rng:(Rng.split_at base i) |]
   and raises the lowest failing index's exception, so each experiment
   family is regression-checked at jobs 1/2/4. *)

module Rng = Lk_util.Rng
module Chunk = Lk_parallel.Chunk
module Engine = Lk_parallel.Engine
module Counters = Lk_oracle.Counters
module Access = Lk_oracle.Access
module Gen = Lk_workloads.Gen
module Reduction = Lk_hardness.Reduction
module Maximal_hard = Lk_hardness.Maximal_hard
module Params = Lk_lcakp.Params
module Lca_kp = Lk_lcakp.Lca_kp
module Solution = Lk_knapsack.Solution
module Baselines = Lk_baselines.Baselines
module Consistency = Lk_lca.Consistency
module Harness = Lk_repro.Repro_harness

let jobs_grid = [ 1; 2; 4 ]

(* The reference the engine must reproduce bit-for-bit. *)
let serial ~base ~trials f =
  Array.init trials (fun i -> f ~index:i ~rng:(Rng.split_at base i))

(* ---------- Chunk ---------- *)

let test_chunk_size () =
  Alcotest.(check int) "jobs<=1 takes whole range" 100 (Chunk.size ~trials:100 ~jobs:1);
  Alcotest.(check int) "~4 chunks per job" 6 (Chunk.size ~trials:100 ~jobs:4);
  Alcotest.(check int) "at least 1" 1 (Chunk.size ~trials:3 ~jobs:8);
  Alcotest.(check int) "empty range" 1 (Chunk.size ~trials:0 ~jobs:4)

let test_chunk_ranges () =
  Alcotest.(check (list (pair int int)))
    "partition" [ (0, 4); (4, 8); (8, 10) ]
    (Chunk.ranges ~trials:10 ~chunk:4);
  Alcotest.(check (list (pair int int))) "empty" [] (Chunk.ranges ~trials:0 ~chunk:4);
  Alcotest.check_raises "bad chunk" (Invalid_argument "Chunk.ranges: chunk must be positive")
    (fun () -> ignore (Chunk.ranges ~trials:5 ~chunk:0));
  Alcotest.check_raises "bad trials"
    (Invalid_argument "Chunk.ranges: trials must be non-negative") (fun () ->
      ignore (Chunk.ranges ~trials:(-1) ~chunk:2))

(* ---------- Engine basics ---------- *)

let test_engine_edge_cases () =
  let base = Rng.create 1L in
  Alcotest.(check int) "trials=0 is empty" 0
    (Array.length (Engine.run ~jobs:4 ~base ~trials:0 (fun ~index ~rng:_ -> index)));
  Alcotest.(check (array int)) "jobs > trials is fine" [| 0; 1 |]
    (Engine.run ~jobs:16 ~base ~trials:2 (fun ~index ~rng:_ -> index));
  Alcotest.check_raises "jobs=0" (Invalid_argument "Engine.run: jobs must be >= 1") (fun () ->
      ignore (Engine.run ~jobs:0 ~base ~trials:3 (fun ~index ~rng:_ -> index)));
  Alcotest.check_raises "negative trials"
    (Invalid_argument "Engine.run: trials must be non-negative") (fun () ->
      ignore (Engine.run ~jobs:2 ~base ~trials:(-1) (fun ~index ~rng:_ -> index)))

let test_engine_base_unperturbed () =
  let base = Rng.create 5L in
  let expected = Rng.int64 (Rng.copy base) in
  ignore (Engine.run ~jobs:4 ~base ~trials:100 (fun ~index:_ ~rng -> Rng.int64 rng));
  Alcotest.(check int64) "base untouched by the fan-out" expected (Rng.int64 base)

(* Trials 3, 6 and 60 raise (3 and 6 share a chunk at jobs=2).  Every jobs
   value must raise trial 3's exception, and only after every domain is
   joined: once it is caught, no trial may still be running.  Each trial
   does some work so that other domains are mid-trial when one fails, and
   each jobs value is tried several times because scheduling varies. *)
let test_engine_failure_lowest_index () =
  let in_flight = Atomic.make 0 in
  let trial ~index ~rng =
    Atomic.incr in_flight;
    Fun.protect
      ~finally:(fun () -> Atomic.decr in_flight)
      (fun () ->
        for _ = 1 to 5_000 do
          ignore (Sys.opaque_identity (Rng.int64 rng))
        done;
        if index = 3 || index = 6 || index = 60 then failwith (Printf.sprintf "trial %d" index);
        index)
  in
  List.iter
    (fun jobs ->
      for _ = 1 to 10 do
        Alcotest.check_raises (Printf.sprintf "jobs=%d raises trial 3" jobs) (Failure "trial 3")
          (fun () -> ignore (Engine.run ~jobs ~base:(Rng.create 1L) ~trials:64 trial));
        Alcotest.(check int) (Printf.sprintf "jobs=%d: no trial in flight" jobs) 0
          (Atomic.get in_flight)
      done)
    [ 1; 2; 4; 8 ]

(* ---------- Determinism regressions, one per experiment family ---------- *)

(* Hardness family (E1/E2): OR-game reduction trials. *)
let test_jobs_invariant_hardness () =
  let expected =
    serial ~base:(Rng.create 101L) ~trials:60 (fun ~index:_ ~rng ->
        Reduction.trial Reduction.Exact ~n:128 ~budget:40 rng)
  in
  List.iter
    (fun jobs ->
      let got =
        Engine.run ~jobs ~base:(Rng.create 101L) ~trials:60 (fun ~index:_ ~rng ->
            Reduction.trial Reduction.Exact ~n:128 ~budget:40 rng)
      in
      Alcotest.(check (array bool)) (Printf.sprintf "jobs=%d" jobs) expected got)
    jobs_grid

(* Hardness family (E3): two-query maximal-feasible game. *)
let test_jobs_invariant_maximal () =
  let play ~index ~rng = Maximal_hard.play_one ~n:110 ~budget:10 ~trial:(index + 1) rng in
  let expected = serial ~base:(Rng.create 303L) ~trials:60 play in
  List.iter
    (fun jobs ->
      let got = Engine.run ~jobs ~base:(Rng.create 303L) ~trials:60 play in
      Alcotest.(check (array bool)) (Printf.sprintf "jobs=%d" jobs) expected got)
    jobs_grid

(* LCA family (E4/E5): full LCA-KP runs with exact query accounting.  Each
   trial charges its own counters ([Access.with_counters]) and the caller
   merges them in index order, as [Server.serve] does. *)
let test_jobs_invariant_lca_counted () =
  let access = Access.of_instance (Gen.generate Gen.Uniform (Rng.create 11L) ~n:600) in
  let params = Params.practical ~sample_scale:0.02 0.2 in
  let trials = 8 in
  let run jobs =
    let per_trial = Array.init trials (fun _ -> Counters.create ()) in
    let values =
      Engine.run ~jobs ~base:(Rng.create 404L) ~trials (fun ~index ~rng ->
          let access = Access.with_counters access per_trial.(index) in
          let algo = Lca_kp.create params access ~seed:5L in
          let state = Lca_kp.run algo ~fresh:rng in
          ( Solution.profit (Access.normalized access) (Lca_kp.induced_solution algo state),
            Lca_kp.samples_per_query algo state ))
    in
    let merged = Counters.create () in
    Array.iter (fun c -> Counters.add ~into:merged c) per_trial;
    (values, merged)
  in
  let expected, expected_counters = run 1 in
  List.iter
    (fun jobs ->
      let got, got_counters = run jobs in
      Alcotest.(check (array (pair (float 0.) int)))
        (Printf.sprintf "values jobs=%d" jobs)
        expected got;
      Alcotest.(check bool)
        (Printf.sprintf "merged counters jobs=%d" jobs)
        true
        (Counters.equal expected_counters got_counters);
      Alcotest.(check bool) "counters non-trivial" true (Counters.total got_counters > 0))
    [ 2; 4 ]

(* Repro family (E6): consistency sweeps through [Consistency.measure ?jobs]. *)
let test_jobs_invariant_consistency () =
  let access = Access.of_instance (Gen.generate Gen.Uniform (Rng.create 21L) ~n:500) in
  let params = Params.practical ~sample_scale:0.1 0.2 in
  let lca = Baselines.lca_kp params access ~seed:9L in
  let probes = Array.init 10 (fun i -> i * 37) in
  let measure jobs = Consistency.measure ~jobs lca ~probes ~runs:6 ~fresh:(Rng.create 606L) in
  let expected = measure 1 in
  List.iter
    (fun jobs ->
      let got = measure jobs in
      Alcotest.(check (float 0.))
        (Printf.sprintf "mean agreement jobs=%d" jobs)
        expected.Consistency.mean_query_agreement got.Consistency.mean_query_agreement;
      Alcotest.(check (float 0.))
        (Printf.sprintf "solution match jobs=%d" jobs)
        expected.Consistency.solution_match got.Consistency.solution_match;
      Alcotest.(check int)
        (Printf.sprintf "distinct solutions jobs=%d" jobs)
        expected.Consistency.distinct_solutions got.Consistency.distinct_solutions)
    [ 2; 4 ]

(* Repro family (E7): rQuantile reproducibility harness with [?jobs]. *)
let test_jobs_invariant_harness () =
  let evaluate jobs =
    Harness.evaluate ~jobs ~runs:12 ~shared_seed:4242L ~fresh:(Rng.create 777L)
      ~sampler:(fun rng -> Array.init 64 (fun _ -> Rng.int_bound rng 1000))
      ~algorithm:(fun ~shared sample ->
        let i = Rng.int_bound shared (Array.length sample) in
        sample.(i))
      ~accurate:(fun x -> x >= 0) ()
  in
  let expected = evaluate 1 in
  List.iter
    (fun jobs ->
      let got = evaluate jobs in
      Alcotest.(check (float 0.))
        (Printf.sprintf "pairwise jobs=%d" jobs)
        expected.Harness.pairwise_agreement got.Harness.pairwise_agreement;
      Alcotest.(check int)
        (Printf.sprintf "distinct jobs=%d" jobs)
        expected.Harness.distinct_outputs got.Harness.distinct_outputs)
    [ 2; 4 ]

(* ---------- QCheck properties ---------- *)

let engine_config_arb =
  QCheck.make
    ~print:(fun (seed, trials, jobs) ->
      Printf.sprintf "seed=%d trials=%d jobs=%d" seed trials jobs)
    QCheck.Gen.(
      let* seed = int_range 0 100_000 in
      let* trials = int_range 0 200 in
      let* jobs = int_range 1 8 in
      return (seed, trials, jobs))

let prop_engine_equals_serial =
  QCheck.Test.make ~name:"engine = serial fan-out for every jobs" ~count:60
    engine_config_arb (fun (seed, trials, jobs) ->
      let f ~index ~rng = (index, Rng.int64 rng, Rng.float rng) in
      Engine.run ~jobs ~base:(Rng.create (Int64.of_int seed)) ~trials f
      = serial ~base:(Rng.create (Int64.of_int seed)) ~trials f)

let prop_chunk_ranges_partition =
  QCheck.Test.make ~name:"chunk ranges partition [0, trials) in order" ~count:200
    QCheck.(pair (int_bound 500) (int_range 1 64))
    (fun (trials, chunk) ->
      let ranges = Chunk.ranges ~trials ~chunk in
      let rec check pos = function
        | [] -> pos = trials
        | (start, stop) :: rest ->
            start = pos && stop > start && stop - start <= chunk
            && (rest = [] || stop - start = chunk)
            && check stop rest
      in
      check 0 ranges)

let () =
  Alcotest.run "parallel"
    [
      ( "chunk",
        [
          Alcotest.test_case "size" `Quick test_chunk_size;
          Alcotest.test_case "ranges" `Quick test_chunk_ranges;
        ] );
      ( "engine",
        [
          Alcotest.test_case "edge cases" `Quick test_engine_edge_cases;
          Alcotest.test_case "base unperturbed" `Quick test_engine_base_unperturbed;
          Alcotest.test_case "failure is the lowest index" `Quick test_engine_failure_lowest_index;
        ] );
      ( "jobs-invariance",
        [
          Alcotest.test_case "hardness trials (E1/E2)" `Quick test_jobs_invariant_hardness;
          Alcotest.test_case "maximal-hard game (E3)" `Quick test_jobs_invariant_maximal;
          Alcotest.test_case "lca-kp + counters (E4/E5)" `Slow test_jobs_invariant_lca_counted;
          Alcotest.test_case "consistency sweep (E6)" `Slow test_jobs_invariant_consistency;
          Alcotest.test_case "repro harness (E7)" `Quick test_jobs_invariant_harness;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_engine_equals_serial;
          QCheck_alcotest.to_alcotest prop_chunk_ranges_partition;
        ] );
    ]
