module Rng = Lk_util.Rng
module Lca = Lk_lca.Lca
module Consistency = Lk_lca.Consistency
module Solution = Lk_knapsack.Solution

(* A synthetic LCA whose runs flip between two fixed solutions with a given
   probability — exercises the consistency arithmetic with known truth. *)
let flipping_lca ~n ~flip_prob =
  let sol_a = Solution.of_indices [ 0; 1 ] and sol_b = Solution.of_indices [ 0; 2 ] in
  {
    Lca.name = "flipper";
    n;
    fresh_run =
      (fun fresh ->
        let sol = if Rng.bernoulli fresh flip_prob then sol_b else sol_a in
        {
          Lca.answers = (fun i -> Solution.mem i sol);
          solution = lazy sol;
          samples_used = 3;
        });
  }

let test_consistency_perfect () =
  let lca = flipping_lca ~n:5 ~flip_prob:0. in
  let r = Consistency.measure lca ~probes:[| 0; 1; 2; 3 |] ~runs:20 ~fresh:(Rng.create 1L) in
  Alcotest.(check (float 1e-9)) "mean agreement" 1. r.Consistency.mean_query_agreement;
  Alcotest.(check (float 1e-9)) "solution match" 1. r.Consistency.solution_match;
  Alcotest.(check int) "one solution" 1 r.Consistency.distinct_solutions;
  Alcotest.(check (float 1e-9)) "samples" 3. r.Consistency.mean_samples_per_run

let test_consistency_half () =
  let lca = flipping_lca ~n:5 ~flip_prob:0.5 in
  let r = Consistency.measure lca ~probes:[| 0; 1; 2 |] ~runs:400 ~fresh:(Rng.create 2L) in
  (* Index 0 always agrees; indices 1 and 2 agree w.p. ~1/2. *)
  Alcotest.(check bool) "solution match near half" true
    (abs_float (r.Consistency.solution_match -. 0.5) < 0.06);
  Alcotest.(check int) "two solutions" 2 r.Consistency.distinct_solutions;
  Alcotest.(check bool) "worst probe near half" true
    (abs_float (r.Consistency.worst_query_agreement -. 0.5) < 0.06);
  Alcotest.(check bool) "mean between" true
    (r.Consistency.mean_query_agreement > 0.6 && r.Consistency.mean_query_agreement < 0.75)

let test_consistency_validation () =
  let lca = flipping_lca ~n:5 ~flip_prob:0. in
  Alcotest.check_raises "needs runs" (Invalid_argument "Consistency.measure: need at least 2 runs")
    (fun () -> ignore (Consistency.measure lca ~probes:[| 0 |] ~runs:1 ~fresh:(Rng.create 1L)));
  Alcotest.check_raises "needs probes" (Invalid_argument "Consistency.measure: need probe indices")
    (fun () -> ignore (Consistency.measure lca ~probes:[||] ~runs:2 ~fresh:(Rng.create 1L)))

let test_lca_query () =
  let lca = flipping_lca ~n:5 ~flip_prob:0. in
  Alcotest.(check bool) "query 0" true (Lca.query lca ~fresh:(Rng.create 5L) 0);
  Alcotest.(check bool) "query 4" false (Lca.query lca ~fresh:(Rng.create 5L) 4)

let test_order_oblivious () =
  let lca = flipping_lca ~n:5 ~flip_prob:0.3 in
  Alcotest.(check bool) "order oblivious" true
    (Consistency.order_oblivious lca ~probes:[| 0; 1; 2; 3; 4 |] ~fresh:(Rng.create 6L))

(* An LCA with illegal per-query mutable state: must be caught. *)
let test_order_detects_statefulness () =
  let stateful =
    {
      Lca.name = "cheater";
      n = 3;
      fresh_run =
        (fun _ ->
          let calls = ref 0 in
          {
            Lca.answers =
              (fun _ ->
                incr calls;
                !calls mod 2 = 0);
            solution = lazy Solution.empty;
            samples_used = 0;
          });
    }
  in
  Alcotest.(check bool) "statefulness detected" false
    (Consistency.order_oblivious stateful ~probes:[| 0; 1; 2 |] ~fresh:(Rng.create 7L))

let () =
  Alcotest.run "lca-framework"
    [
      ( "consistency",
        [
          Alcotest.test_case "perfect" `Quick test_consistency_perfect;
          Alcotest.test_case "half flip" `Quick test_consistency_half;
          Alcotest.test_case "validation" `Quick test_consistency_validation;
        ] );
      ("query", [ Alcotest.test_case "stateless query" `Quick test_lca_query ]);
      ( "order-obliviousness",
        [
          Alcotest.test_case "pure answers pass" `Quick test_order_oblivious;
          Alcotest.test_case "stateful answers fail" `Quick test_order_detects_statefulness;
        ] );
    ]
