module Rng = Lk_util.Rng
module Empirical = Lk_stats.Empirical
module Alias = Lk_stats.Alias
module Dkw = Lk_stats.Dkw

(* ---------- Empirical ---------- *)

let sample = [| 5; 1; 3; 3; 9; 7; 3; 1 |]

let test_empirical_cdf () =
  let e = Empirical.of_samples sample in
  Alcotest.(check int) "size" 8 (Empirical.size e);
  Alcotest.(check (float 1e-12)) "cdf below min" 0. (Empirical.cdf e 0);
  Alcotest.(check (float 1e-12)) "cdf at 1" 0.25 (Empirical.cdf e 1);
  Alcotest.(check (float 1e-12)) "cdf at 3" 0.625 (Empirical.cdf e 3);
  Alcotest.(check (float 1e-12)) "cdf at max" 1. (Empirical.cdf e 9);
  Alcotest.(check (float 1e-12)) "strict at 3" 0.25 (Empirical.cdf_strict e 3);
  Alcotest.(check (float 1e-12)) "mass of 3" 0.375 (Empirical.mass e 3);
  Alcotest.(check (float 1e-12)) "mass of absent" 0. (Empirical.mass e 4)

let test_empirical_quantile () =
  let e = Empirical.of_samples sample in
  Alcotest.(check int) "median" 3 (Empirical.quantile e 0.5);
  Alcotest.(check int) "min" 1 (Empirical.quantile e 0.01);
  Alcotest.(check int) "max" 9 (Empirical.quantile e 1.0);
  Alcotest.(check int) "0.75 quantile" 5 (Empirical.quantile e 0.75)

let test_empirical_quantile_matches_cdf () =
  let rng = Rng.create 77L in
  for _ = 1 to 50 do
    let xs = Array.init 200 (fun _ -> Rng.int_bound rng 1000) in
    let e = Empirical.of_samples xs in
    List.iter
      (fun q ->
        let x = Empirical.quantile e q in
        Alcotest.(check bool) "cdf(x) >= q" true (Empirical.cdf e x >= q -. 1e-12);
        Alcotest.(check bool) "cdf(x-1) < q" true (Empirical.cdf e (x - 1) < q))
      [ 0.1; 0.25; 0.5; 0.9 ]
  done

let test_empirical_heavy_points () =
  let e = Empirical.of_samples sample in
  Alcotest.(check (list (pair int (float 1e-12)))) "heavy at 0.3" [ (3, 0.375) ]
    (Empirical.heavy_points e ~threshold:0.3);
  Alcotest.(check int) "all distinct" 5 (List.length (Empirical.distinct e))

let test_empirical_crossing () =
  let e = Empirical.of_samples sample in
  (* grid = multiples of 4: 0, 4, 8, 12 *)
  let grid = (4, fun k -> 4 * k) in
  Alcotest.(check (option int)) "crossing 0.5" (Some 4) (Empirical.crossing e ~grid 0.5);
  Alcotest.(check (option int)) "crossing 0.9" (Some 12) (Empirical.crossing e ~grid 0.9);
  let low_grid = (1, fun _ -> 2) in
  Alcotest.(check (option int)) "unreachable" None (Empirical.crossing e ~grid:low_grid 0.9)

(* ---------- Alias ---------- *)

let test_alias_probabilities () =
  let a = Alias.create [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check (float 1e-12)) "p0" 0.1 (Alias.probability a 0);
  Alcotest.(check (float 1e-12)) "p3" 0.4 (Alias.probability a 3)

let test_alias_frequencies () =
  let weights = [| 5.; 1.; 0.; 14. |] in
  let a = Alias.create weights in
  let rng = Rng.create 123L in
  let counts = Array.make 4 0 in
  let draws = 100_000 in
  for _ = 1 to draws do
    let i = Alias.sample a rng in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero weight never drawn" 0 counts.(2);
  let expect = [| 0.25; 0.05; 0.; 0.7 |] in
  Array.iteri
    (fun i e ->
      let freq = float_of_int counts.(i) /. float_of_int draws in
      Alcotest.(check bool)
        (Printf.sprintf "freq %d close" i)
        true
        (abs_float (freq -. e) < 0.01))
    expect

let test_alias_rejects_bad_weights () =
  Alcotest.check_raises "negative" (Invalid_argument "Alias.create: weights must be finite and non-negative")
    (fun () -> ignore (Alias.create [| 1.; -1. |]));
  Alcotest.check_raises "zero total" (Invalid_argument "Alias.create: total weight must be positive")
    (fun () -> ignore (Alias.create [| 0.; 0. |]))

let test_alias_single () =
  let a = Alias.create [| 42. |] in
  let rng = Rng.create 5L in
  for _ = 1 to 10 do
    Alcotest.(check int) "only choice" 0 (Alias.sample a rng)
  done

(* ---------- DKW ---------- *)

let test_dkw_roundtrip () =
  let eps = Dkw.epsilon ~n:1000 ~confidence:0.95 in
  Alcotest.(check bool) "reasonable" true (eps > 0.02 && eps < 0.08);
  let n = Dkw.samples_needed ~epsilon:eps ~confidence:0.95 in
  Alcotest.(check bool) "inverts" true (abs (n - 1000) <= 1)

let test_dkw_monotone () =
  Alcotest.(check bool) "more samples, tighter" true
    (Dkw.epsilon ~n:10_000 ~confidence:0.9 < Dkw.epsilon ~n:100 ~confidence:0.9)

(* A draw passes only ints across module boundaries: neither single draws
   nor a batch into a caller-owned buffer touch the minor heap.  1000 is
   not a power of two, so every draw goes through the rejection limit. *)
let test_alias_allocation_free () =
  let a = Alias.create (Array.init 1000 (fun i -> float_of_int (1 + (i mod 7)))) in
  let rng = Rng.create 12L and buf = Array.make 4096 0 and acc = ref 0 in
  acc := Alias.sample a rng;
  Alias.sample_many_into a rng buf;
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    acc := !acc + Alias.sample a rng
  done;
  Alcotest.(check (float 0.)) "sample: minor words" 0. (Gc.minor_words () -. before);
  let before = Gc.minor_words () in
  Alias.sample_many_into a rng buf;
  Alcotest.(check (float 0.)) "sample_many_into: minor words" 0. (Gc.minor_words () -. before);
  Alcotest.(check bool) "draws consumed" true (!acc > 0 && Array.exists (fun i -> i > 0) buf)

let test_alias_sample_many () =
  let a = Alias.create [| 1.; 1. |] in
  let xs = Alias.sample_many a (Rng.create 3L) 100 in
  Alcotest.(check int) "count" 100 (Array.length xs);
  Array.iter (fun i -> Alcotest.(check bool) "in range" true (i = 0 || i = 1)) xs

let test_dkw_validation () =
  Alcotest.check_raises "bad n" (Invalid_argument "Dkw.epsilon: n must be positive") (fun () ->
      ignore (Dkw.epsilon ~n:0 ~confidence:0.9));
  Alcotest.check_raises "bad confidence"
    (Invalid_argument "Dkw.epsilon: confidence must be in (0, 1)") (fun () ->
      ignore (Dkw.epsilon ~n:10 ~confidence:1.))

(* ---------- QCheck properties ---------- *)

let prop_quantile_sound =
  QCheck.Test.make ~name:"empirical quantile is sound" ~count:200
    QCheck.(pair (array_of_size Gen.(int_range 1 100) (int_bound 50)) (float_bound_exclusive 1.))
    (fun (xs, q) ->
      QCheck.assume (Array.length xs > 0);
      let q = Float.max 0.01 q in
      let e = Empirical.of_samples xs in
      let x = Empirical.quantile e q in
      Empirical.cdf e x >= q -. 1e-9 && Empirical.cdf_strict e x <= q +. 1e-9)

(* PR3: the batched sampler must consume the rng stream exactly as
   repeated single draws would — same outputs AND same end state, so
   swapping one for the other can never perturb downstream draws. *)
let prop_alias_batch_matches_loop =
  QCheck.Test.make ~name:"sample_many = repeated sample (outputs and rng state)" ~count:100
    QCheck.(
      pair
        (array_of_size Gen.(int_range 1 30) (float_range 0. 10.))
        (pair (int_bound 200) (int_bound 1000)))
    (fun (ws, (k, seed)) ->
      QCheck.assume (Array.exists (fun w -> w > 0.) ws);
      let a = Alias.create ws in
      let rng_batch = Rng.create (Int64.of_int seed) in
      let rng_loop = Rng.create (Int64.of_int seed) in
      let batch = Alias.sample_many a rng_batch k in
      let loop = Array.init k (fun _ -> Alias.sample a rng_loop) in
      batch = loop
      && Rng.snapshot_equal (Rng.snapshot rng_batch) (Rng.snapshot rng_loop))

(* PR8: the flat FIFO-queue Vose build replaced a Stdlib.Queue pairing.
   This reference re-implements the boxed-queue construction verbatim; the
   flat build must reproduce its prob/alias tables cell by cell (and with
   them every downstream sample stream). *)
let reference_alias_tables ws =
  let n = Array.length ws in
  let total = Lk_util.Float_utils.sum ws in
  let norm = Array.map (fun w -> w /. total) ws in
  let scaled = Array.map (fun p -> p *. float_of_int n) norm in
  let prob = Array.make n 1. and alias = Array.init n (fun i -> i) in
  let small = Queue.create () and large = Queue.create () in
  for i = 0 to n - 1 do
    if scaled.(i) < 1. then Queue.push i small else Queue.push i large
  done;
  while (not (Queue.is_empty small)) && not (Queue.is_empty large) do
    let s = Queue.pop small and l = Queue.pop large in
    prob.(s) <- scaled.(s);
    alias.(s) <- l;
    scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.;
    if scaled.(l) < 1. then Queue.push l small else Queue.push l large
  done;
  (prob, alias)

let prop_alias_flat_build_matches_queue_reference =
  QCheck.Test.make ~name:"flat FIFO build = Queue.t reference build (bit-exact)" ~count:200
    QCheck.(
      pair
        (array_of_size Gen.(int_range 1 40) (int_bound 20))
        (int_bound 1000))
    (fun (wi, seed) ->
      QCheck.assume (Array.exists (fun w -> w > 0) wi);
      (* quarter-integer weights: plenty of exact ties and exact 1.0 cells,
         the order-sensitive cases of the pairing loop *)
      let ws = Array.map (fun w -> float_of_int w /. 4.) wi in
      let a = Alias.create ws in
      let prob, alias = reference_alias_tables ws in
      let cells_match = ref true in
      for i = 0 to Alias.size a - 1 do
        let p, al = Alias.cell a i in
        if not (Float.equal p prob.(i) && al = alias.(i)) then cells_match := false
      done;
      (* and the stream a consumer sees is the reference stream *)
      let rng_a = Rng.create (Int64.of_int seed) in
      let rng_r = Rng.create (Int64.of_int seed) in
      let n = Array.length ws in
      let reference_sample () =
        let i = Rng.int_bound rng_r n in
        if Rng.float rng_r < prob.(i) then i else alias.(i)
      in
      let stream_match = ref true in
      for _ = 1 to 64 do
        if Alias.sample a rng_a <> reference_sample () then stream_match := false
      done;
      !cells_match && !stream_match)

let prop_alias_prob_sums_to_one =
  QCheck.Test.make ~name:"alias probabilities sum to 1" ~count:100
    QCheck.(array_of_size Gen.(int_range 1 30) (float_range 0. 10.))
    (fun ws ->
      QCheck.assume (Array.exists (fun w -> w > 0.) ws);
      let a = Alias.create ws in
      let total = ref 0. in
      for i = 0 to Alias.size a - 1 do
        total := !total +. Alias.probability a i
      done;
      abs_float (!total -. 1.) < 1e-9)

let () =
  Alcotest.run "stats"
    [
      ( "empirical",
        [
          Alcotest.test_case "cdf and mass" `Quick test_empirical_cdf;
          Alcotest.test_case "quantile" `Quick test_empirical_quantile;
          Alcotest.test_case "quantile vs cdf" `Quick test_empirical_quantile_matches_cdf;
          Alcotest.test_case "heavy points" `Quick test_empirical_heavy_points;
          Alcotest.test_case "grid crossing" `Quick test_empirical_crossing;
        ] );
      ( "alias",
        [
          Alcotest.test_case "probabilities" `Quick test_alias_probabilities;
          Alcotest.test_case "frequencies" `Quick test_alias_frequencies;
          Alcotest.test_case "bad weights" `Quick test_alias_rejects_bad_weights;
          Alcotest.test_case "single category" `Quick test_alias_single;
          Alcotest.test_case "draws allocation-free" `Quick test_alias_allocation_free;
        ] );
      ( "dkw",
        [
          Alcotest.test_case "roundtrip" `Quick test_dkw_roundtrip;
          Alcotest.test_case "monotone" `Quick test_dkw_monotone;
        ] );
      ( "edge-validation",
        [
          Alcotest.test_case "alias sample_many" `Quick test_alias_sample_many;
          Alcotest.test_case "dkw validation" `Quick test_dkw_validation;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_quantile_sound;
          QCheck_alcotest.to_alcotest prop_alias_prob_sums_to_one;
          QCheck_alcotest.to_alcotest prop_alias_batch_matches_loop;
          QCheck_alcotest.to_alcotest prop_alias_flat_build_matches_queue_reference;
        ] );
    ]
