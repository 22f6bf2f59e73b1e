module Rng = Lk_util.Rng
module Item = Lk_knapsack.Item
module Instance = Lk_knapsack.Instance
module Solution = Lk_knapsack.Solution
module Greedy = Lk_knapsack.Greedy
module Exact_dp = Lk_knapsack.Exact_dp
module Int_instance = Lk_knapsack.Int_instance
module Branch_bound = Lk_knapsack.Branch_bound
module Meet_middle = Lk_knapsack.Meet_middle
module Fptas = Lk_knapsack.Fptas
module Reference = Lk_knapsack.Reference

(* ---------- Item / Instance basics ---------- *)

let test_item_validation () =
  Alcotest.check_raises "negative profit"
    (Invalid_argument "Item.make: profit must be finite and non-negative") (fun () ->
      ignore (Item.make ~profit:(-1.) ~weight:1.));
  Alcotest.check_raises "nan weight"
    (Invalid_argument "Item.make: weight must be finite and non-negative") (fun () ->
      ignore (Item.make ~profit:1. ~weight:Float.nan))

let test_item_efficiency () =
  Alcotest.(check (float 1e-12)) "ratio" 2.5 (Item.efficiency (Item.make ~profit:5. ~weight:2.));
  Alcotest.(check (float 0.)) "zero weight" infinity
    (Item.efficiency (Item.make ~profit:1. ~weight:0.))

let test_instance_normalize () =
  let i = Instance.of_pairs [ (1., 2.); (3., 4.) ] ~capacity:5. in
  let n = Instance.normalize_profits i in
  Alcotest.(check bool) "normalized" true (Instance.is_normalized n);
  Alcotest.(check (float 1e-12)) "first profit" 0.25 (Instance.item n 0).Item.profit;
  Alcotest.(check (float 1e-12)) "capacity kept" 5. (Instance.capacity n)

let test_instance_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Instance.make: no items") (fun () ->
      ignore (Instance.make [||] ~capacity:1.))

(* The closure-based Kahan sums that the loop forms replaced, verbatim:
   [Float_utils.sum], [sum_by] and the [Instance] totals must reproduce
   them bit for bit.  One case is exempt: where an input NaN meets the NaN
   that inf - inf generates, IEEE 754 lets the sum carry either payload,
   and which one depends on the operand order the compiler picks for the
   addition (the closure form adds a boxed accumulator from memory and so
   swaps it).  Both results are then NaN.  Program inputs never hold a
   NaN: items, weights and profits are validated finite. *)
let reference_sum a =
  let total = ref 0. and comp = ref 0. in
  Array.iter
    (fun x ->
      let y = x -. !comp in
      let t = !total +. y in
      comp := t -. !total -. y;
      total := t)
    a;
  !total

let reference_sum_by f a = reference_sum (Array.map f a)

(* Mixed magnitudes, subnormals, signed zeros, ±inf and nan. *)
let sum_float =
  QCheck.Gen.(
    oneof
      [ map Int64.float_of_bits ui64;
        map2 ldexp (float_range (-1.) 1.) (int_range (-60) 60);
        map (ldexp 1.) (int_range (-1074) 1023);
        oneofl [ 0.; -0.; 5e-324; -5e-324; infinity; neg_infinity; nan; max_float; 0.1; 1e16 ] ])

let prop_sums_match_reference =
  QCheck.Test.make ~name:"Kahan sums = closure reference (bit-exact)" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(array (fun x -> Printf.sprintf "%h" x))
       QCheck.Gen.(array_size (int_bound 80) sum_float))
    (fun xs ->
      let nan_input = Array.exists Float.is_nan xs in
      let same a b =
        Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
        || (nan_input && Float.is_nan a && Float.is_nan b)
      in
      let half x = x *. 0.5 in
      let items =
        Array.init (Array.length xs) (fun i ->
            { Item.profit = xs.(i); weight = xs.(Array.length xs - 1 - i) })
      in
      same (Lk_util.Float_utils.sum xs) (reference_sum xs)
      && same (Lk_util.Float_utils.sum_by half xs) (reference_sum_by half xs)
      && (Array.length items = 0
         ||
         let inst = Instance.make items ~capacity:1. in
         same (Instance.total_profit inst)
           (reference_sum_by (fun (it : Item.t) -> it.profit) items)
         && same (Instance.total_weight inst)
              (reference_sum_by (fun (it : Item.t) -> it.weight) items)))

(* ---------- Solution ---------- *)

let demo = Instance.of_pairs [ (10., 5.); (6., 4.); (4., 3.); (1., 0.) ] ~capacity:8.

(* ---------- Instance.digest ---------- *)

(* The digest's byte layout written through [Buffer.add_int64_le], a code
   path separate from the library's: n, the capacity's bits, then each
   item's profit and weight bits, all 8-byte little-endian, then MD5. *)
let reference_digest inst =
  let buf = Buffer.create 64 in
  let add_float x = Buffer.add_int64_le buf (Int64.bits_of_float x) in
  Buffer.add_int64_le buf (Int64.of_int (Instance.size inst));
  add_float (Instance.capacity inst);
  Array.iter
    (fun (it : Item.t) ->
      add_float it.profit;
      add_float it.weight)
    inst.Instance.items;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pin_instance () =
  Lk_workloads.Gen.generate Lk_workloads.Gen.Garbage_mix (Rng.of_path 1L [ "pin" ]) ~n:10_000

let test_digest_pins () =
  (* Values computed independently, by python3 over the same bytes:
     hashlib.md5(struct.pack('<qd', n, K)
                 + b''.join(struct.pack('<dd', p, w) for p, w in items)) *)
  let small =
    Instance.of_pairs
      [ (1., 2.); (0.1, 3.5); (5e-324, 0.); (1e300, 2.2250738585072014e-308) ]
      ~capacity:2.5
  in
  Alcotest.(check string) "hand-picked floats" "65d3fa4f6c5f8c08c9d0a74d6d0eff2c"
    (Instance.digest small);
  let big = pin_instance () in
  Alcotest.(check string) "garbage-mix n=10k" "8a6c71b8f6c9c61d4fc99b6887e20bc9"
    (Instance.digest big);
  Alcotest.(check string) "reference agrees" (reference_digest big) (Instance.digest big)

let test_digest_allocation () =
  (* The bytes hashed live in one buffer, which at n = 10k is too large for
     the minor heap: the rest (the digest and its hex) is a few words. *)
  let big = pin_instance () in
  ignore (Sys.opaque_identity (Instance.digest big));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Instance.digest big));
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words <= 64" words) true (words <= 64.)

let digest_float =
  QCheck.Gen.(
    oneof
      [
        float_bound_inclusive 1e6;
        map (fun b -> Float.abs (Int64.float_of_bits b)) ui64;
        oneofl [ 0.; -0.; 5e-324; 2.2250738585072014e-308; max_float; 1. ];
      ])

(* A float [Item.make] and [Instance.make] accept. *)
let accepted x = Float.is_finite x && not (x < 0.)

let digest_case =
  QCheck.(
    make
      ~print:
        Print.(
          pair (list (pair (Printf.sprintf "%h") (Printf.sprintf "%h"))) (Printf.sprintf "%h"))
      Gen.(pair (list_size (int_range 1 40) (pair digest_float digest_float)) digest_float))

let prop_digest_reference =
  QCheck.Test.make ~name:"digest = int64_le reference" ~count:200 digest_case
    (fun (pairs, capacity) ->
      QCheck.assume
        (accepted capacity && List.for_all (fun (p, w) -> accepted p && accepted w) pairs);
      let inst = Instance.of_pairs pairs ~capacity in
      Instance.digest inst = reference_digest inst)

let flip bit x =
  Int64.float_of_bits (Int64.logxor (Int64.bits_of_float x) (Int64.shift_left 1L bit))

(* An instance from its floats: field 0 is the capacity, fields 2k + 1 and
   2k + 2 are item k's profit and weight. *)
let of_fields f =
  Instance.make
    (Array.init
       ((Array.length f - 1) / 2)
       (fun k -> Item.make ~profit:f.((2 * k) + 1) ~weight:f.((2 * k) + 2)))
    ~capacity:f.(0)

(* Flipping one of bits 0-62 (every bit but the sign) of one float changes
   the digest; the same floats built again, through other code, keep it. *)
let prop_digest_bits =
  QCheck.Test.make ~name:"flipped bit changes it, rebuild keeps it" ~count:300
    QCheck.(pair digest_case (pair small_nat (int_bound 62)))
    (fun ((pairs, capacity), (field, bit)) ->
      let fields = Array.of_list (capacity :: List.concat_map (fun (p, w) -> [ p; w ]) pairs) in
      QCheck.assume (Array.for_all accepted fields);
      let field = field mod Array.length fields in
      let flipped = Array.copy fields in
      flipped.(field) <- flip bit fields.(field);
      QCheck.assume (accepted flipped.(field));
      let digest = Instance.digest (Instance.of_pairs pairs ~capacity) in
      let copy x = Int64.float_of_bits (Int64.bits_of_float x) in
      Instance.digest (of_fields (Array.map copy fields)) = digest
      && Instance.digest (of_fields flipped) <> digest)

let test_solution_accounting () =
  let s = Solution.of_indices [ 0; 2 ] in
  Alcotest.(check (float 1e-12)) "profit" 14. (Solution.profit demo s);
  Alcotest.(check (float 1e-12)) "weight" 8. (Solution.weight demo s);
  Alcotest.(check bool) "feasible" true (Solution.is_feasible demo s)

let test_solution_maximality () =
  (* {0, 2} fills capacity 8 but item 3 has weight 0, so it still fits. *)
  let s = Solution.of_indices [ 0; 2 ] in
  Alcotest.(check bool) "not maximal (free item left)" false (Solution.is_maximal demo s);
  let s' = Solution.of_indices [ 0; 2; 3 ] in
  Alcotest.(check bool) "maximal" true (Solution.is_maximal demo s');
  let overweight = Solution.of_indices [ 0; 1 ] in
  Alcotest.(check bool) "infeasible not maximal" false (Solution.is_maximal demo overweight)

let test_solution_of_answers () =
  let s = Solution.of_answers [| true; false; true; false |] in
  Alcotest.(check (list int)) "indices" [ 0; 2 ] (Solution.indices s)

(* ---------- Greedy ---------- *)

let test_efficiency_order () =
  (* efficiencies: 2.0, 1.5, 4/3, inf *)
  let order = Greedy.efficiency_order demo in
  Alcotest.(check (array int)) "order" [| 3; 0; 1; 2 |] order

let test_greedy_split () =
  let { Greedy.prefix; break_item } = Greedy.split demo in
  (* take 3 (w=0), take 0 (w=5); item 1 (w=4) does not fit in the last 3 *)
  Alcotest.(check (list int)) "prefix" [ 3; 0 ] prefix;
  Alcotest.(check (option int)) "break" (Some 1) break_item

let test_half_approx_on_demo () =
  let s = Greedy.half_approx demo in
  (* prefix {3, 0} has profit 11 > singleton {1} profit 6 *)
  Alcotest.(check (float 1e-12)) "value" 11. (Solution.profit demo s)

let test_half_approx_singleton_case () =
  (* One huge-profit heavy item vs a light efficient one. *)
  let inst = Instance.of_pairs [ (1., 1.); (50., 100.) ] ~capacity:100. in
  let s = Greedy.half_approx inst in
  Alcotest.(check (float 1e-12)) "picks the big singleton" 50. (Solution.profit inst s)

let test_skip_greedy_maximal () =
  let s = Greedy.skip_greedy demo in
  Alcotest.(check bool) "maximal" true (Solution.is_maximal demo s)

let test_fractional_value () =
  (* demo: free item (1) + item0 fully (10, w5) + 3/4 of item1 (6, w4) = 15.5 *)
  Alcotest.(check (float 1e-9)) "lp bound" 15.5 (Greedy.fractional_value demo)

let test_fractional_zero_capacity () =
  let inst = Instance.of_pairs [ (3., 0.); (5., 2.) ] ~capacity:0. in
  Alcotest.(check (float 1e-12)) "free items only" 3. (Greedy.fractional_value inst)

(* ---------- Exact solvers ---------- *)

let test_dp_known () =
  let inst = Int_instance.make ~profits:[| 60; 100; 120 |] ~weights:[| 10; 20; 30 |] ~capacity:50 in
  let value, sol = Exact_dp.solve inst in
  Alcotest.(check int) "opt value" 220 value;
  Alcotest.(check (list int)) "opt set" [ 1; 2 ] (Solution.indices sol)

let test_dp_zero_capacity () =
  let inst = Int_instance.make ~profits:[| 5; 7 |] ~weights:[| 1; 0 |] ~capacity:0 in
  let value, sol = Exact_dp.solve inst in
  Alcotest.(check int) "free item only" 7 value;
  Alcotest.(check (list int)) "set" [ 1 ] (Solution.indices sol)

let random_int_instance rng ~n ~max_w ~max_p =
  let profits = Array.init n (fun _ -> Rng.int_range rng 0 max_p) in
  let weights = Array.init n (fun _ -> Rng.int_range rng 0 max_w) in
  let capacity = Rng.int_range rng 0 (max 1 (n * max_w / 3)) in
  Int_instance.make ~profits ~weights ~capacity

let brute_force (inst : Int_instance.t) =
  let n = Int_instance.size inst in
  assert (n <= 20);
  let best = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let w = ref 0 and p = ref 0 in
    for b = 0 to n - 1 do
      if mask land (1 lsl b) <> 0 then begin
        w := !w + inst.Int_instance.weights.(b);
        p := !p + inst.Int_instance.profits.(b)
      end
    done;
    if !w <= inst.Int_instance.capacity && !p > !best then best := !p
  done;
  !best

let test_dp_vs_brute_force () =
  let rng = Rng.create 99L in
  for _ = 1 to 60 do
    let inst = random_int_instance rng ~n:(Rng.int_range rng 1 12) ~max_w:15 ~max_p:20 in
    let expected = brute_force inst in
    let v1, s1 = Exact_dp.solve inst in
    Alcotest.(check int) "dp value" expected v1;
    Alcotest.(check int) "dp value-only" expected (Exact_dp.value inst);
    let fi = Int_instance.to_float inst in
    Alcotest.(check bool) "dp solution feasible" true (Solution.is_feasible fi s1);
    Alcotest.(check (float 1e-9)) "dp solution value matches" (float_of_int expected)
      (Solution.profit fi s1)
  done

let test_profit_dp_agrees () =
  let rng = Rng.create 100L in
  for _ = 1 to 40 do
    let inst = random_int_instance rng ~n:(Rng.int_range rng 1 10) ~max_w:12 ~max_p:15 in
    let v1 = Exact_dp.value inst in
    let v2, sol = Exact_dp.solve_by_profit inst in
    Alcotest.(check int) "profit-dp value" v1 v2;
    let fi = Int_instance.to_float inst in
    Alcotest.(check bool) "profit-dp feasible" true (Solution.is_feasible fi sol);
    Alcotest.(check (float 1e-9)) "profit-dp reconstruction" (float_of_int v2)
      (Solution.profit fi sol)
  done

let test_bnb_and_mim_agree_with_dp () =
  let rng = Rng.create 101L in
  for _ = 1 to 40 do
    let inst = random_int_instance rng ~n:(Rng.int_range rng 1 14) ~max_w:20 ~max_p:25 in
    let expected = float_of_int (Exact_dp.value inst) in
    let fi = Int_instance.to_float inst in
    let bnb_v, bnb_s = Branch_bound.solve fi in
    Alcotest.(check (float 1e-9)) "bnb value" expected bnb_v;
    Alcotest.(check bool) "bnb feasible" true (Solution.is_feasible fi bnb_s);
    let mim_v, mim_s = Meet_middle.solve fi in
    Alcotest.(check (float 1e-9)) "mim value" expected mim_v;
    Alcotest.(check bool) "mim feasible" true (Solution.is_feasible fi mim_s)
  done

let test_bnb_budget () =
  let rng = Rng.create 102L in
  let inst = Int_instance.to_float (random_int_instance rng ~n:30 ~max_w:1000 ~max_p:1000) in
  Alcotest.check_raises "budget" Branch_bound.Node_budget_exceeded (fun () ->
      ignore (Branch_bound.solve ~node_budget:5 inst))

(* ---------- Nemhauser-Ullmann ---------- *)

let test_nu_known () =
  let inst = Instance.of_pairs [ (60., 10.); (100., 20.); (120., 30.) ] ~capacity:50. in
  let v, sol = Lk_knapsack.Nemhauser_ullmann.solve inst in
  Alcotest.(check (float 1e-9)) "opt" 220. v;
  Alcotest.(check (list int)) "set" [ 1; 2 ] (Solution.indices sol)

let test_nu_agrees_with_dp () =
  let rng = Rng.create 210L in
  for _ = 1 to 60 do
    let inst = random_int_instance rng ~n:(Rng.int_range rng 1 14) ~max_w:20 ~max_p:25 in
    let fi = Int_instance.to_float inst in
    let expected = float_of_int (Exact_dp.value inst) in
    let v, sol = Lk_knapsack.Nemhauser_ullmann.solve fi in
    Alcotest.(check (float 1e-9)) "value" expected v;
    Alcotest.(check bool) "feasible" true (Solution.is_feasible fi sol);
    Alcotest.(check (float 1e-9)) "reconstruction" v (Solution.profit fi sol)
  done

let test_nu_budget () =
  (* Strongly-correlated instances maximize the frontier. *)
  let rng = Rng.create 211L in
  let items = Array.init 40 (fun _ ->
      let w = Rng.uniform rng 1. 1000. in
      Item.make ~profit:(w +. Rng.uniform rng 0. 0.001) ~weight:w) in
  let inst = Instance.make items ~capacity:10_000. in
  Alcotest.check_raises "budget" Lk_knapsack.Nemhauser_ullmann.Frontier_budget_exceeded
    (fun () -> ignore (Lk_knapsack.Nemhauser_ullmann.solve ~frontier_budget:64 inst))

let test_nu_frontier_size () =
  let inst = Instance.of_pairs [ (1., 1.); (2., 2.); (3., 3.) ] ~capacity:6. in
  (* All 8 subsets fit; (p = w) means every distinct weight is Pareto. *)
  Alcotest.(check int) "frontier" 7 (Lk_knapsack.Nemhauser_ullmann.frontier_size inst)

(* ---------- FPTAS ---------- *)

let test_fptas_guarantee () =
  let rng = Rng.create 103L in
  for _ = 1 to 30 do
    let inst = random_int_instance rng ~n:(Rng.int_range rng 1 12) ~max_w:15 ~max_p:50 in
    let fi = Int_instance.to_float inst in
    let opt = float_of_int (Exact_dp.value inst) in
    List.iter
      (fun epsilon ->
        let v, sol = Fptas.solve ~epsilon fi in
        Alcotest.(check bool) "feasible" true (Solution.is_feasible fi sol);
        Alcotest.(check bool) "(1-eps) guarantee" true (v >= ((1. -. epsilon) *. opt) -. 1e-9);
        Alcotest.(check bool) "not above opt" true (v <= opt +. 1e-9))
      [ 0.5; 0.1; 0.01 ]
  done

let test_fptas_ignores_oversized () =
  let inst = Instance.of_pairs [ (100., 50.); (3., 1.) ] ~capacity:2. in
  let v, sol = Fptas.solve ~epsilon:0.1 inst in
  Alcotest.(check (float 1e-12)) "only the small one" 3. v;
  Alcotest.(check (list int)) "set" [ 1 ] (Solution.indices sol)

(* ---------- Greedy 1/2-approximation property ---------- *)

let test_half_approx_bound () =
  let rng = Rng.create 104L in
  for _ = 1 to 80 do
    let n = Rng.int_range rng 1 14 in
    (* Ensure every item fits alone, the precondition of the classic bound. *)
    let weights = Array.init n (fun _ -> Rng.int_range rng 0 10) in
    let capacity = 10 + Rng.int_range rng 0 20 in
    let profits = Array.init n (fun _ -> Rng.int_range rng 0 30) in
    let inst = Int_instance.make ~profits ~weights ~capacity in
    let fi = Int_instance.to_float inst in
    let opt = float_of_int (Exact_dp.value inst) in
    let v = Solution.profit fi (Greedy.half_approx fi) in
    Alcotest.(check bool) "1/2 bound" true (v >= (opt /. 2.) -. 1e-9)
  done

(* ---------- Reference brackets ---------- *)

let test_reference_contains_opt () =
  let rng = Rng.create 400L in
  for _ = 1 to 30 do
    let inst = random_int_instance rng ~n:(Rng.int_range rng 1 12) ~max_w:15 ~max_p:20 in
    let fi = Int_instance.to_float inst in
    let opt = float_of_int (Exact_dp.value inst) in
    let b = Lk_knapsack.Reference.estimate fi in
    Alcotest.(check bool) "lower <= upper" true
      (b.Lk_knapsack.Reference.lower <= b.Lk_knapsack.Reference.upper +. 1e-9);
    Alcotest.(check bool) "lower <= opt" true (b.Lk_knapsack.Reference.lower <= opt +. 1e-9);
    Alcotest.(check bool) "opt <= upper" true (opt <= b.Lk_knapsack.Reference.upper +. 1e-9)
  done

let test_reference_gap () =
  let b = { Lk_knapsack.Reference.lower = 8.; upper = 10.; method_used = "x" } in
  Alcotest.(check (float 1e-12)) "gap" 0.2 (Lk_knapsack.Reference.gap b);
  let z = { Lk_knapsack.Reference.lower = 0.; upper = 0.; method_used = "x" } in
  Alcotest.(check (float 0.)) "zero-safe" 0. (Lk_knapsack.Reference.gap z)

let test_reference_fallback_method () =
  (* A huge flat instance exceeds the FPTAS cell budget: the bracket must
     fall back to greedy + fractional rather than hang. *)
  let items = Array.init 30_000 (fun _ -> Item.make ~profit:1. ~weight:1.) in
  let inst = Instance.make items ~capacity:10_000. in
  let b = Lk_knapsack.Reference.estimate ~budget_cells:1000 inst in
  Alcotest.(check string) "fallback" "greedy+fractional" b.Lk_knapsack.Reference.method_used;
  Alcotest.(check bool) "still bracketed" true
    (b.Lk_knapsack.Reference.lower <= b.Lk_knapsack.Reference.upper)

(* ---------- QCheck properties ---------- *)

let int_instance_gen =
  QCheck.Gen.(
    let* n = int_range 1 12 in
    let* profits = array_repeat n (int_range 0 25) in
    let* weights = array_repeat n (int_range 0 12) in
    let* capacity = int_range 0 40 in
    return (Int_instance.make ~profits ~weights ~capacity))

let int_instance_arb =
  QCheck.make
    ~print:(fun (i : Int_instance.t) ->
      Printf.sprintf "n=%d cap=%d" (Int_instance.size i) i.Int_instance.capacity)
    int_instance_gen

let prop_solvers_agree =
  QCheck.Test.make ~name:"dp = bnb = meet-in-the-middle = nemhauser-ullmann" ~count:150
    int_instance_arb (fun inst ->
      let fi = Int_instance.to_float inst in
      let dp = float_of_int (Exact_dp.value inst) in
      let bnb = Branch_bound.value fi in
      let mim, _ = Meet_middle.solve fi in
      let nu = Lk_knapsack.Nemhauser_ullmann.value fi in
      abs_float (dp -. bnb) < 1e-9 && abs_float (dp -. mim) < 1e-9
      && abs_float (dp -. nu) < 1e-9)

let prop_greedy_prefix_feasible =
  QCheck.Test.make ~name:"greedy prefix is feasible" ~count:150 int_instance_arb (fun inst ->
      let fi = Int_instance.to_float inst in
      Solution.is_feasible fi (Greedy.prefix_solution fi))

let prop_skip_greedy_maximal =
  QCheck.Test.make ~name:"skip greedy is maximal" ~count:150 int_instance_arb (fun inst ->
      let fi = Int_instance.to_float inst in
      Solution.is_maximal fi (Greedy.skip_greedy fi))

let prop_fractional_upper_bounds_opt =
  QCheck.Test.make ~name:"fractional relaxation >= OPT" ~count:150 int_instance_arb (fun inst ->
      let fi = Int_instance.to_float inst in
      Greedy.fractional_value fi >= float_of_int (Exact_dp.value inst) -. 1e-9)

let prop_profit_dp_agrees =
  QCheck.Test.make ~name:"dp-by-weight = dp-by-profit (value and witness)" ~count:150
    int_instance_arb (fun inst ->
      let v, sol = Exact_dp.solve_by_profit inst in
      let fi = Int_instance.to_float inst in
      v = Exact_dp.value inst
      && Solution.is_feasible fi sol
      && abs_float (Solution.profit fi sol -. float_of_int v) < 1e-9)

(* ---------- Flat FPTAS differentials ----------

   The Bigarray/bitset-plane FPTAS kernel must be output-identical to the
   straightforward implementation it replaced; Reference.fptas_naive is a
   verbatim port of the pre-overhaul code kept as its oracle. *)

let fptas_matches_naive inst =
  let fi = Int_instance.to_float inst in
  List.for_all
    (fun epsilon ->
      let v1, s1 = Fptas.solve ~epsilon fi in
      let v2, s2 = Reference.fptas_naive ~epsilon fi in
      Float.equal v1 v2 && Solution.equal s1 s2)
    [ 0.5; 0.25; 0.1 ]

let prop_flat_fptas_matches_naive =
  QCheck.Test.make ~name:"flat fptas = naive reference (bit-exact)" ~count:100
    int_instance_arb fptas_matches_naive

(* [v, sol] is an optimal solution: its value is OPT, and the solution is
   feasible and worth exactly [v]. *)
let optimal_solution inst (v, sol) =
  let fi = Int_instance.to_float inst in
  v = brute_force inst
  && Solution.is_feasible fi sol
  && Float.equal (Solution.profit fi sol) (float_of_int v)

let test_flat_kernel_edges () =
  (* the degenerate shapes that stress table sizing: a single item, zero
     capacity, every item too heavy to take, and zero profits *)
  let edges =
    [
      ("n=1", Int_instance.make ~profits:[| 7 |] ~weights:[| 3 |] ~capacity:5);
      ("n=1 too heavy", Int_instance.make ~profits:[| 7 |] ~weights:[| 9 |] ~capacity:5);
      ("capacity 0", Int_instance.make ~profits:[| 5; 7 |] ~weights:[| 1; 0 |] ~capacity:0);
      ( "all too heavy",
        Int_instance.make ~profits:[| 5; 7; 9 |] ~weights:[| 11; 12; 13 |] ~capacity:10 );
      ( "zero profits",
        Int_instance.make ~profits:[| 0; 0 |] ~weights:[| 1; 2 |] ~capacity:3 );
    ]
  in
  List.iter
    (fun (label, inst) ->
      let opt = brute_force inst in
      Alcotest.(check bool) (label ^ ": dp solve optimal") true
        (optimal_solution inst (Exact_dp.solve inst));
      Alcotest.(check int) (label ^ ": dp value") opt (Exact_dp.value inst);
      Alcotest.(check int) (label ^ ": min-weight best") opt
        (snd (Exact_dp.min_weight_per_profit inst));
      Alcotest.(check bool) (label ^ ": dp-by-profit optimal") true
        (optimal_solution inst (Exact_dp.solve_by_profit inst));
      Alcotest.(check bool) (label ^ ": fptas matches") true (fptas_matches_naive inst))
    edges

(* The plane is the bitset the FPTAS take-store moved onto; it must agree
   with the per-row Bytes encoding bit for bit. *)
let prop_plane_matches_bytes_rows =
  QCheck.Test.make ~name:"bitset plane = per-row Bytes rows" ~count:200
    QCheck.(
      pair
        (pair (int_range 1 12) (int_range 1 80))
        (small_list (pair (int_bound 100) (int_bound 100))))
    (fun ((rows, cols), sets) ->
      let ws = Lk_knapsack.Dp_scratch.create () in
      let plane = Lk_knapsack.Dp_scratch.plane ws ~rows ~cols in
      let width = Lk_knapsack.Dp_scratch.plane_words ~cols in
      let bytes_rows =
        Array.init rows (fun _ -> Bytes.make ((cols / 8) + 1) '\000')
      in
      List.iter
        (fun (r, c) ->
          let r = r mod rows and c = c mod cols in
          Lk_knapsack.Dp_scratch.plane_set plane ~width r c;
          Lk_knapsack.Dp_scratch.set_bit bytes_rows.(r) c)
        sets;
      let ok = ref true in
      for r = 0 to rows - 1 do
        for c = 0 to cols - 1 do
          let p = Lk_knapsack.Dp_scratch.plane_bit plane ~width r c = 1 in
          if p <> Lk_knapsack.Dp_scratch.get_bit bytes_rows.(r) c then ok := false
        done
      done;
      !ok)

let prop_fptas_guarantee =
  QCheck.Test.make ~name:"fptas: feasible, within [(1-eps)OPT, OPT]" ~count:100
    int_instance_arb (fun inst ->
      let fi = Int_instance.to_float inst in
      let opt = float_of_int (Exact_dp.value inst) in
      List.for_all
        (fun epsilon ->
          let v, sol = Fptas.solve ~epsilon fi in
          Solution.is_feasible fi sol
          && v >= ((1. -. epsilon) *. opt) -. 1e-9
          && v <= opt +. 1e-9)
        [ 0.5; 0.1 ])

(* The classic 1/2 bound assumes every item fits alone: weights <= 10 and
   capacity >= 10 guarantee the precondition. *)
let fits_alone_arb =
  QCheck.make
    ~print:(fun (i : Int_instance.t) ->
      Printf.sprintf "n=%d cap=%d" (Int_instance.size i) i.Int_instance.capacity)
    QCheck.Gen.(
      let* n = int_range 1 14 in
      let* profits = array_repeat n (int_range 0 30) in
      let* weights = array_repeat n (int_range 0 10) in
      let* capacity = int_range 10 40 in
      return (Int_instance.make ~profits ~weights ~capacity))

let prop_greedy_half_bound =
  QCheck.Test.make ~name:"greedy half-approx >= OPT/2 when every item fits" ~count:150
    fits_alone_arb (fun inst ->
      let fi = Int_instance.to_float inst in
      Solution.profit fi (Greedy.half_approx fi)
      >= (float_of_int (Exact_dp.value inst) /. 2.) -. 1e-9)

(* The workspace-reusing FPTAS must be bitwise-equal to the allocating
   run.  One workspace is shared across all generated instances on purpose
   — stale state leaking from a previous (larger) instance is exactly the
   bug class under test. *)

let shared_fptas_ws = Fptas.create_workspace ()

let prop_workspace_fptas_identical =
  QCheck.Test.make ~name:"fptas solve_in ws = solve (shared workspace)" ~count:150
    int_instance_arb (fun inst ->
      let fi = Int_instance.to_float inst in
      List.for_all
        (fun epsilon ->
          let v, sol = Fptas.solve ~epsilon fi in
          let v', sol' = Fptas.solve_in shared_fptas_ws ~epsilon fi in
          Float.equal v v' && Solution.indices sol = Solution.indices sol')
        [ 0.5; 0.1 ])

let prop_min_weight_running_best =
  QCheck.Test.make ~name:"min_weight_per_profit best = scan of the table" ~count:200
    int_instance_arb (fun inst ->
      let table, best = Exact_dp.min_weight_per_profit inst in
      let scanned = ref 0 in
      Array.iteri
        (fun v w -> if w <> max_int && w <= inst.Int_instance.capacity && v > !scanned then scanned := v)
        table;
      best = !scanned)

let () =
  Alcotest.run "knapsack"
    [
      ( "items-instances",
        [
          Alcotest.test_case "item validation" `Quick test_item_validation;
          Alcotest.test_case "efficiency" `Quick test_item_efficiency;
          Alcotest.test_case "normalization" `Quick test_instance_normalize;
          Alcotest.test_case "instance validation" `Quick test_instance_validation;
          QCheck_alcotest.to_alcotest prop_sums_match_reference;
        ] );
      ( "digest",
        [
          Alcotest.test_case "pins" `Quick test_digest_pins;
          QCheck_alcotest.to_alcotest prop_digest_reference;
          QCheck_alcotest.to_alcotest prop_digest_bits;
          Alcotest.test_case "n=10k allocates <= 64 minor words" `Quick test_digest_allocation;
        ] );
      ( "solution",
        [
          Alcotest.test_case "accounting" `Quick test_solution_accounting;
          Alcotest.test_case "maximality" `Quick test_solution_maximality;
          Alcotest.test_case "of_answers" `Quick test_solution_of_answers;
        ] );
      ( "greedy",
        [
          Alcotest.test_case "efficiency order" `Quick test_efficiency_order;
          Alcotest.test_case "split" `Quick test_greedy_split;
          Alcotest.test_case "half approx (prefix)" `Quick test_half_approx_on_demo;
          Alcotest.test_case "half approx (singleton)" `Quick test_half_approx_singleton_case;
          Alcotest.test_case "skip greedy maximal" `Quick test_skip_greedy_maximal;
          Alcotest.test_case "fractional value" `Quick test_fractional_value;
          Alcotest.test_case "fractional K=0" `Quick test_fractional_zero_capacity;
          Alcotest.test_case "half bound vs OPT" `Quick test_half_approx_bound;
        ] );
      ( "exact",
        [
          Alcotest.test_case "dp known" `Quick test_dp_known;
          Alcotest.test_case "dp zero capacity" `Quick test_dp_zero_capacity;
          Alcotest.test_case "dp vs brute force" `Quick test_dp_vs_brute_force;
          Alcotest.test_case "profit dp agrees" `Quick test_profit_dp_agrees;
          Alcotest.test_case "bnb and mim agree" `Quick test_bnb_and_mim_agree_with_dp;
          Alcotest.test_case "bnb budget" `Quick test_bnb_budget;
        ] );
      ( "nemhauser-ullmann",
        [
          Alcotest.test_case "known" `Quick test_nu_known;
          Alcotest.test_case "agrees with dp" `Quick test_nu_agrees_with_dp;
          Alcotest.test_case "budget" `Quick test_nu_budget;
          Alcotest.test_case "frontier size" `Quick test_nu_frontier_size;
        ] );
      ( "fptas",
        [
          Alcotest.test_case "guarantee" `Quick test_fptas_guarantee;
          Alcotest.test_case "oversized ignored" `Quick test_fptas_ignores_oversized;
        ] );
      ( "reference",
        [
          Alcotest.test_case "contains opt" `Quick test_reference_contains_opt;
          Alcotest.test_case "gap" `Quick test_reference_gap;
          Alcotest.test_case "fallback method" `Quick test_reference_fallback_method;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_solvers_agree;
          QCheck_alcotest.to_alcotest prop_greedy_prefix_feasible;
          QCheck_alcotest.to_alcotest prop_skip_greedy_maximal;
          QCheck_alcotest.to_alcotest prop_fractional_upper_bounds_opt;
          QCheck_alcotest.to_alcotest prop_profit_dp_agrees;
          QCheck_alcotest.to_alcotest prop_fptas_guarantee;
          QCheck_alcotest.to_alcotest prop_greedy_half_bound;
          QCheck_alcotest.to_alcotest prop_workspace_fptas_identical;
          QCheck_alcotest.to_alcotest prop_min_weight_running_best;
          QCheck_alcotest.to_alcotest prop_flat_fptas_matches_naive;
          QCheck_alcotest.to_alcotest prop_plane_matches_bytes_rows;
          Alcotest.test_case "flat kernel edges" `Quick test_flat_kernel_edges;
        ] );
    ]
