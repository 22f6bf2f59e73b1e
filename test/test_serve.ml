module Rng = Lk_util.Rng
module Instance = Lk_knapsack.Instance
module Access = Lk_oracle.Access
module Counters = Lk_oracle.Counters
module Obs = Lk_obs.Obs
module Event = Lk_obs.Event
module Params = Lk_lcakp.Params
module Lca_kp = Lk_lcakp.Lca_kp
module Gen = Lk_workloads.Gen
module Batch = Lk_serve.Batch
module Trace = Lk_serve.Trace
module Server = Lk_serve.Server

(* ---------- Trace: determinism, bounds, skew ---------- *)

let test_trace_deterministic () =
  let gen () =
    Trace.generate ~theta_instances:1.2 ~theta_items:0.8 ~seed:5L
      ~sizes:[| 100; 50; 200 |] ~length:500 ()
  in
  let a = gen () and b = gen () in
  Alcotest.(check bool) "same seed, same entries" true
    (Trace.entries a = Trace.entries b);
  Alcotest.(check int) "length" 500 (Trace.length a);
  Array.iter
    (fun e ->
      if e.Trace.instance < 0 || e.Trace.instance > 2 then
        Alcotest.failf "instance %d out of range" e.Trace.instance;
      let n = [| 100; 50; 200 |].(e.Trace.instance) in
      if e.Trace.item < 0 || e.Trace.item >= n then
        Alcotest.failf "item %d out of range for instance %d" e.Trace.item
          e.Trace.instance)
    (Trace.entries a);
  let counts = Trace.instance_counts ~n_instances:3 a in
  Alcotest.(check int) "counts cover the trace" 500
    (Array.fold_left ( + ) 0 counts)

let test_trace_skew () =
  (* Strong instance skew: rank 0 must dominate; theta 0 is near-uniform. *)
  let sizes = Array.make 8 50 in
  let skewed =
    Trace.generate ~theta_instances:2.0 ~seed:7L ~sizes ~length:4000 ()
  in
  let cs = Trace.instance_counts ~n_instances:8 skewed in
  Array.iteri
    (fun i c ->
      if i > 0 && cs.(0) < c then
        Alcotest.failf "rank 0 (%d) outdrawn by rank %d (%d)" cs.(0) i c)
    cs;
  Alcotest.(check bool) "rank 0 clearly dominates under theta=2" true
    (float_of_int cs.(0) > 2. *. float_of_int cs.(7));
  let flat = Trace.generate ~theta_instances:0. ~seed:7L ~sizes ~length:4000 () in
  let cf = Trace.instance_counts ~n_instances:8 flat in
  Array.iter
    (fun c ->
      (* 4000 draws over 8 ranks: uniform mean 500; allow generous noise. *)
      if c < 300 || c > 700 then Alcotest.failf "theta=0 count %d not uniform" c)
    cf

let test_trace_validation () =
  Alcotest.check_raises "empty sizes"
    (Invalid_argument "Trace.generate: no instances") (fun () ->
      ignore (Trace.generate ~seed:1L ~sizes:[||] ~length:1 ()));
  Alcotest.check_raises "non-positive size"
    (Invalid_argument "Trace.generate: instance sizes must be >= 1") (fun () ->
      ignore (Trace.generate ~seed:1L ~sizes:[| 10; 0 |] ~length:1 ()));
  Alcotest.check_raises "negative length"
    (Invalid_argument "Trace.generate: negative length") (fun () ->
      ignore (Trace.generate ~seed:1L ~sizes:[| 10 |] ~length:(-1) ()));
  Alcotest.check_raises "bad theta"
    (Invalid_argument "Trace.generate: theta_items must be finite and >= 0")
    (fun () ->
      ignore (Trace.generate ~theta_items:(-1.) ~seed:1L ~sizes:[| 10 |] ~length:1 ()))

(* ---------- Batch: batched answers = fold of singletons ---------- *)

let params = Params.practical ~sample_scale:0.05 0.25

let prop_batch_differential =
  QCheck.Test.make ~name:"batched = fold of Lca_kp.query (answers + bill)"
    ~count:10
    QCheck.(pair small_nat (list_of_size (QCheck.Gen.int_range 1 60) small_nat))
    (fun (iseed, probes) ->
      let inst =
        Gen.generate Gen.Garbage_mix (Rng.create (Int64.of_int (iseed + 1))) ~n:300
      in
      let idx = Array.of_list (List.map (fun p -> p mod 300) probes) in
      let run_path batched =
        let access = Access.of_instance inst in
        let algo = Lca_kp.create params access ~seed:11L in
        let state = Lca_kp.prepare algo ~fresh:(Rng.create 4L) in
        let answers =
          if batched then Batch.answer algo state idx
          else Batch.answer_fold algo state idx
        in
        (answers, Access.counters access)
      in
      let a, ca = run_path true in
      let b, cb = run_path false in
      a = b && Counters.equal ca cb)

(* ---------- Server: jobs invariance ---------- *)

let make_instances k n =
  Array.init k (fun i ->
      Gen.generate Gen.Uniform (Rng.create (Int64.of_int (100 + i))) ~n)

(* The report and the recorded event stream of one serve call.  [dropped]
   must be 0 for the streams to be compared whole. *)
let serve_once ~jobs instances trace =
  let sink = Obs.recorder () in
  let server = Server.create ~window:64 ~params ~seed:42L instances in
  let report = Server.serve ~jobs ~sink server trace in
  (report, Obs.events sink, Obs.dropped sink)

let prop_jobs_invariance =
  QCheck.Test.make
    ~name:"serve at jobs 1/2/4: identical responses, counters, events"
    ~count:5 QCheck.small_nat (fun tseed ->
      let instances = make_instances 3 200 in
      let trace =
        Trace.generate ~seed:(Int64.of_int (tseed + 1)) ~sizes:[| 200; 200; 200 |]
          ~length:300 ()
      in
      let r1, e1, d1 = serve_once ~jobs:1 instances trace in
      let r2, e2, d2 = serve_once ~jobs:2 instances trace in
      let r4, e4, d4 = serve_once ~jobs:4 instances trace in
      r1.Server.responses = r2.Server.responses
      && r1.Server.responses = r4.Server.responses
      && Counters.equal r1.Server.counters r2.Server.counters
      && Counters.equal r1.Server.counters r4.Server.counters
      && r1.Server.pool = r2.Server.pool
      && r1.Server.pool = r4.Server.pool
      && r1.Server.prepares = r2.Server.prepares
      && r1.Server.prepares = r4.Server.prepares
      && e1 <> [] && d1 = 0 && d2 = 0 && d4 = 0
      && List.equal Event.equal e1 e2
      && List.equal Event.equal e1 e4)

(* ---------- Server: one prepared state per digest ---------- *)

let garbage_mix seed = Gen.generate Gen.Garbage_mix (Rng.create seed) ~n:300

(* The state the server prepares for a digest, rebuilt on a fresh oracle
   from the stream server.mli documents. *)
let reference_state ?sink inst =
  let algo = Lca_kp.create params (Access.of_instance ?sink inst) ~seed:42L in
  let fresh = Rng.of_path 42L [ "serve-prepare"; Instance.digest inst ] in
  (algo, Lca_kp.run algo ~fresh)

let test_server_shares_identical_instances () =
  (* Instances 0 and 1 are identical, so they share one preparation; the
     bill is that of two preparations (an array indexed by instance would
     prepare three times and bill 2178 samples). *)
  let a = garbage_mix 5L and b = garbage_mix 6L in
  let trace =
    Trace.generate ~theta_instances:0. ~seed:3L ~sizes:[| 300; 300; 300 |] ~length:600 ()
  in
  let server = Server.create ~window:64 ~params ~seed:42L [| a; a; b |] in
  let r = Server.serve server trace in
  Alcotest.(check int) "one preparation per digest" 2 r.Server.prepares;
  Alcotest.(check int) "misses = prepares" 2 r.Server.pool.Server.misses;
  Alcotest.(check int) "never evicts" 0 r.Server.pool.Server.evictions;
  Alcotest.(check int) "samples of two preparations" 1452
    (Counters.weighted_samples r.Server.counters);
  Alcotest.(check int) "one index query per answer" 600
    (Counters.index_queries r.Server.counters)

let test_server_prepares_each_digest_once () =
  (* Theta 0 over four instances, window 64: every window touches every
     instance, so every window after the first touch only hits. *)
  let a = garbage_mix 5L and b = garbage_mix 6L and c = garbage_mix 7L in
  let instances = [| a; b; a; c |] in
  let trace =
    Trace.generate ~theta_instances:0. ~seed:11L ~sizes:(Array.make 4 300) ~length:640 ()
  in
  let entries = Trace.entries trace in
  for w = 0 to 9 do
    let seen = Array.make 4 false in
    Array.iter (fun e -> seen.(e.Trace.instance) <- true) (Array.sub entries (w * 64) 64);
    if not (Array.for_all Fun.id seen) then Alcotest.failf "window %d misses an instance" w
  done;
  let server = Server.create ~window:64 ~params ~seed:42L instances in
  let reports = List.init 3 (fun _ -> Server.serve ~jobs:2 server trace) in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  Alcotest.(check int) "prepares = distinct digests" 3 (sum (fun r -> r.Server.prepares));
  Alcotest.(check int) "hits = the other lookups" ((3 * 10 * 4) - 3)
    (sum (fun r -> r.Server.pool.Server.hits));
  let expected =
    List.fold_left
      (fun acc inst ->
        let algo, state = reference_state inst in
        acc + Lca_kp.samples_per_query algo state)
      0 [ a; b; c ]
  in
  Alcotest.(check int) "samples = those of the prepared states" expected
    (sum (fun r -> Counters.weighted_samples r.Server.counters));
  Alcotest.(check int) "later calls prepare nothing" 0
    (List.nth reports 2).Server.prepares

(* Indices of the weighted samples a recorded stream drew, sorted. *)
let drawn sink =
  List.sort compare
    (List.filter_map
       (function Event.Oracle_query (Event.Weighted_sample i) -> Some i | _ -> None)
       (Obs.events sink))

let test_server_matches_reference () =
  (* Responses equal a stateless run on the digest's preparation stream
     followed by the reference fold, at every jobs count.  Answers rarely
     depend on the stream, so the samples the server draws must also be
     those of the reference runs (instance 2 repeats instance 0). *)
  let instances = [| garbage_mix 5L; garbage_mix 6L; garbage_mix 5L |] in
  let trace =
    Trace.generate ~theta_instances:0.3 ~seed:13L ~sizes:[| 300; 300; 300 |] ~length:500 ()
  in
  let expected = Array.make (Trace.length trace) false in
  let reference_sink = Obs.recorder () in
  Array.iteri
    (fun k inst ->
      let sink = if k < 2 then reference_sink else Obs.null in
      let algo, state = reference_state ~sink inst in
      Array.iteri
        (fun p e ->
          if e.Trace.instance = k then
            expected.(p) <- (Batch.answer_fold algo state [| e.Trace.item |]).(0))
        (Trace.entries trace))
    instances;
  List.iter
    (fun jobs ->
      let sink = Obs.recorder () in
      let server = Server.create ~window:64 ~params ~seed:42L instances in
      let r = Server.serve ~jobs ~sink server trace in
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d responses = reference" jobs)
        true
        (r.Server.responses = expected);
      Alcotest.(check (list int))
        (Printf.sprintf "jobs %d samples = reference" jobs)
        (drawn reference_sink) (drawn sink))
    [ 1; 2; 4 ]

(* ---------- Server: every window size = the per-entry fold ---------- *)

(* Each instance's state prepared on its first touch from its digest's
   stream, then one [Lca_kp.answer] per entry in trace order, every charge
   on one counter set.  The instances must be pairwise distinct: the
   server prepares a shared digest once. *)
let reference_fold instances trace =
  let counters = Counters.create () in
  let prepared = Array.make (Array.length instances) None in
  let responses =
    Array.map
      (fun e ->
        let k = e.Trace.instance in
        let algo, state =
          match prepared.(k) with
          | Some p -> p
          | None ->
              let inst = instances.(k) in
              let access = Access.with_counters (Access.of_instance inst) counters in
              let algo = Lca_kp.create params access ~seed:42L in
              let fresh = Rng.of_path 42L [ "serve-prepare"; Instance.digest inst ] in
              let p = (algo, Lca_kp.run algo ~fresh) in
              prepared.(k) <- Some p;
              p
        in
        Lca_kp.answer algo state e.Trace.item)
      (Trace.entries trace)
  in
  (responses, counters)

let prop_window_sizes =
  QCheck.Test.make
    ~name:"serve at windows 1/7/64/512/len+1, jobs 1/2 = per-entry fold" ~count:16
    QCheck.(
      quad (int_range 1 8) (int_range 1 300) (oneofl [ 0.; 0.6; 1.1; 2.0 ]) small_nat)
    (fun (k, length, theta, tseed) ->
      let instances =
        Array.init k (fun i ->
            Gen.generate Gen.Garbage_mix (Rng.create (Int64.of_int (200 + i))) ~n:(60 + (40 * i)))
      in
      let trace =
        Trace.generate ~theta_instances:theta ~seed:(Int64.of_int (tseed + 1))
          ~sizes:(Array.map Instance.size instances) ~length ()
      in
      let expected, bill = reference_fold instances trace in
      List.for_all
        (fun window ->
          List.for_all
            (fun jobs ->
              let server = Server.create ~window ~params ~seed:42L instances in
              let r = Server.serve ~jobs server trace in
              r.Server.responses = expected && Counters.equal r.Server.counters bill)
            [ 1; 2 ])
        [ 1; 7; 64; 512; length + 1 ])

let test_server_warm_replay () =
  let instances = make_instances 3 200 in
  let trace =
    Trace.generate ~seed:9L ~sizes:[| 200; 200; 200 |] ~length:200 ()
  in
  let server = Server.create ~window:64 ~params ~seed:42L instances in
  let cold = Server.serve server trace in
  let warm = Server.serve server trace in
  Alcotest.(check bool) "same answers warm" true
    (cold.Server.responses = warm.Server.responses);
  Alcotest.(check int) "warm replay never prepares" 0 warm.Server.prepares;
  Alcotest.(check int) "warm replay never misses" 0 warm.Server.pool.Server.misses;
  Alcotest.(check bool) "warm hits cover the lookups" true
    (warm.Server.pool.Server.hits > 0)

let () =
  Alcotest.run "serve"
    [
      ( "trace",
        [
          Alcotest.test_case "deterministic + in range" `Quick test_trace_deterministic;
          Alcotest.test_case "zipf skew" `Quick test_trace_skew;
          Alcotest.test_case "validation" `Quick test_trace_validation;
        ] );
      ("batch", [ QCheck_alcotest.to_alcotest prop_batch_differential ]);
      ( "server",
        [
          QCheck_alcotest.to_alcotest prop_jobs_invariance;
          Alcotest.test_case "identical instances share a state" `Quick
            test_server_shares_identical_instances;
          Alcotest.test_case "each digest prepared once" `Quick
            test_server_prepares_each_digest_once;
          Alcotest.test_case "responses = run + answer_fold" `Quick
            test_server_matches_reference;
          Alcotest.test_case "warm replay" `Quick test_server_warm_replay;
          QCheck_alcotest.to_alcotest prop_window_sizes;
        ] );
    ]
