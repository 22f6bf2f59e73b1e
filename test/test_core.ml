module Rng = Lk_util.Rng
module Item = Lk_knapsack.Item
module Instance = Lk_knapsack.Instance
module Solution = Lk_knapsack.Solution
module Access = Lk_oracle.Access
module Params = Lk_lcakp.Params
module Partition = Lk_lcakp.Partition
module Eps = Lk_lcakp.Eps
module Tilde = Lk_lcakp.Tilde
module Convert_greedy = Lk_lcakp.Convert_greedy
module Mapping_greedy = Lk_lcakp.Mapping_greedy
module Lca_kp = Lk_lcakp.Lca_kp
module Iky_value = Lk_lcakp.Iky_value
module Domain = Lk_repro.Domain
module Gen = Lk_workloads.Gen

(* ---------- Params ---------- *)

let test_params_presets () =
  let f = Params.faithful 0.3 in
  Alcotest.(check (float 1e-12)) "faithful tau" (0.09 /. 5.) f.Params.tau;
  Alcotest.(check (float 1e-12)) "faithful rho" (0.09 /. 18.) f.Params.rho;
  let p = Params.practical 0.2 in
  Alcotest.(check (float 1e-12)) "practical tau" 0.05 p.Params.tau;
  Alcotest.(check (float 1e-12)) "practical rho" 0.1 p.Params.rho;
  Alcotest.(check bool) "beta <= rho" true (p.Params.beta <= p.Params.rho)

let test_params_validation () =
  Alcotest.check_raises "epsilon out of range" (Invalid_argument "Params: epsilon must be in (0, 1)")
    (fun () -> ignore (Params.practical 1.5));
  let scale = Invalid_argument "Params: sample_scale must be finite and > 0" in
  List.iter
    (fun s ->
      Alcotest.check_raises (Printf.sprintf "sample_scale %h" s) scale (fun () ->
          ignore (Params.practical ~sample_scale:s 0.2)))
    [ 0.; -0.; -1.; Float.nan; Float.infinity ];
  Alcotest.check_raises "faithful sample_scale 0" scale (fun () ->
      ignore (Params.faithful ~sample_scale:0. 0.2));
  Alcotest.check_raises "bits 0" (Invalid_argument "Params: bits must be >= 1") (fun () ->
      ignore (Params.practical ~bits:0 0.2));
  Alcotest.check_raises "tie_bits -1" (Invalid_argument "Params: tie_bits must be >= 0")
    (fun () -> ignore (Params.practical ~tie_bits:(-1) 0.2));
  let width = Invalid_argument "Params: bits + tie_bits must be <= 61" in
  Alcotest.check_raises "bits + tie_bits = 62" width (fun () ->
      ignore (Params.practical ~bits:46 ~tie_bits:16 0.2));
  Alcotest.check_raises "bits + tie_bits overflows" width (fun () ->
      ignore (Params.faithful ~bits:max_int ~tie_bits:max_int 0.2));
  let p = Params.practical ~bits:45 ~tie_bits:16 0.2 in
  Alcotest.(check int) "bits + tie_bits = 61 accepted" 61 (p.Params.bits + p.Params.tie_bits)

let test_params_sizes () =
  let p = Params.practical 0.2 in
  Alcotest.(check bool) "r sample positive" true (Params.r_sample_size p > 0);
  Alcotest.(check bool) "rq sample positive" true (Params.rq_sample_size p > 0);
  Alcotest.(check int) "copies per bucket" 5 (Params.copies_per_bucket p);
  Alcotest.(check (float 1e-12)) "large cutoff" 0.04 (Params.large_profit_cutoff p);
  (* Tighter epsilon must cost more R samples. *)
  Alcotest.(check bool) "r grows as eps shrinks" true
    (Params.r_sample_size (Params.practical 0.1) > Params.r_sample_size (Params.practical 0.3));
  Alcotest.(check bool) "scale reduces rq" true
    (Params.rq_sample_size (Params.practical ~sample_scale:0.1 0.2) < Params.rq_sample_size p)

let test_theoretical_query_complexity () =
  let p = Params.practical 0.2 in
  let c1 = Params.theoretical_query_complexity p ~n:1000 in
  let c2 = Params.theoretical_query_complexity p ~n:1000000 in
  Alcotest.(check bool) "positive" true (c1 > 0.);
  (* log* growth: a 1000x bigger instance costs at most a constant factor. *)
  Alcotest.(check bool) "mild growth in n" true (c2 /. c1 < 10_000.)

(* ---------- Partition ---------- *)

let test_partition_classify () =
  let epsilon = 0.2 in
  (* cutoff = 0.04 *)
  let check_k name expect item =
    Alcotest.(check string) name (Partition.to_string expect)
      (Partition.to_string (Partition.classify ~epsilon item))
  in
  check_k "large" Partition.Large (Item.make ~profit:0.05 ~weight:1.);
  check_k "small" Partition.Small (Item.make ~profit:0.04 ~weight:0.5);
  check_k "garbage" Partition.Garbage (Item.make ~profit:0.01 ~weight:1.);
  (* Zero-weight, tiny-profit: infinite efficiency -> small. *)
  check_k "free item is small" Partition.Small (Item.make ~profit:0.01 ~weight:0.);
  (* Boundary: profit exactly eps^2 is NOT large. *)
  check_k "boundary profit" Partition.Small (Item.make ~profit:0.04 ~weight:0.04)

let test_partition_profile () =
  let inst =
    Instance.of_pairs [ (0.5, 0.2); (0.3, 0.2); (0.1, 0.2); (0.05, 0.2); (0.05, 0.2) ] ~capacity:0.5
  in
  let inst = Instance.normalize inst in
  let profile = Partition.profile ~epsilon:0.3 inst in
  let total = List.fold_left (fun acc (_, mass, _) -> acc +. mass) 0. profile in
  Alcotest.(check (float 1e-9)) "masses sum to 1" 1. total;
  let count = List.fold_left (fun acc (_, _, c) -> acc + c) 0 profile in
  Alcotest.(check int) "counts sum to n" 5 count

(* ---------- Eps ---------- *)

let small_spread_instance n =
  (* No large items: n equal-profit items with efficiencies spread
     geometrically well above eps^2. *)
  let items =
    Array.init n (fun i ->
        let eff = 0.5 *. (1.01 ** float_of_int (i mod 200)) in
        let p = 1. in
        Item.make ~profit:p ~weight:(p /. eff))
  in
  Instance.make items ~capacity:(0.3 *. Lk_util.Float_utils.sum_by (fun (i : Item.t) -> i.Item.weight) items)

let test_eps_empty_when_large_dominates () =
  let p = Params.practical 0.2 in
  let eps = Eps.compute p ~seed:1L ~large_profit:0.95 ~encoded_efficiencies:[| 1; 2; 3 |] in
  Alcotest.(check int) "empty" 0 (Eps.length eps)

let test_eps_monotone_and_buckets () =
  let params = Params.practical ~sample_scale:0.2 0.15 in
  let inst = Instance.normalize (small_spread_instance 5000) in
  let access = Access.of_instance inst in
  let fresh = Rng.create 5L in
  let n_rq = Params.rq_sample_size params in
  let a = 3 * n_rq / 2 in
  let encoded =
    Array.init a (fun _ ->
        let i, it = Access.sample access fresh in
        Params.encode_efficiency params ~seed:7L ~index:i (Item.efficiency it))
  in
  let eps = Eps.compute params ~seed:7L ~large_profit:0. ~encoded_efficiencies:encoded in
  Alcotest.(check bool) "non-trivial" true (Eps.length eps >= 3);
  for k = 2 to Eps.length eps do
    Alcotest.(check bool) "non-increasing" true (Eps.threshold eps k <= Eps.threshold eps (k - 1))
  done;
  (* Bucket masses approximate the q target (loose check: practical preset). *)
  let ok, masses = Eps.is_eps_for params ~seed:7L ~instance:inst eps in
  ignore ok;
  Array.iteri
    (fun b mass ->
      if b < Eps.length eps - 1 then
        Alcotest.(check bool)
          (Printf.sprintf "bucket %d mass %.3f near eps" b mass)
          true
          (mass > 0.05 && mass < 0.35))
    masses

let test_eps_threshold_bounds () =
  let eps = Eps.empty in
  Alcotest.check_raises "out of range" (Invalid_argument "Eps.threshold: index out of range")
    (fun () -> ignore (Eps.threshold eps 1))

(* ---------- Tilde ---------- *)

let few_large_access ?(n = 4000) seed =
  let inst = Gen.generate Gen.Few_large (Rng.create seed) ~n in
  Access.of_instance inst

let test_tilde_collects_large () =
  let params = Params.practical ~sample_scale:0.1 0.2 in
  let access = few_large_access 11L in
  let inst = Access.normalized access in
  let truth = ref [] in
  for i = Instance.size inst - 1 downto 0 do
    if Partition.is_large ~epsilon:0.2 (Instance.item inst i) then truth := i :: !truth
  done;
  let tilde = Tilde.build params access ~seed:3L ~fresh:(Rng.create 21L) in
  Alcotest.(check (list int)) "all large collected (Lemma 4.2)" !truth
    (Array.to_list tilde.Tilde.large_indices)

let test_tilde_equal_across_runs () =
  let params = Params.practical ~sample_scale:1.0 0.25 in
  let access = few_large_access 12L in
  let t1 = Tilde.build params access ~seed:9L ~fresh:(Rng.create 31L) in
  let t2 = Tilde.build params access ~seed:9L ~fresh:(Rng.create 32L) in
  Alcotest.(check bool) "identical tilde (Lemma 4.9 witness)" true (Tilde.equal t1 t2)

let test_tilde_synthetic_items () =
  let params = Params.practical ~sample_scale:0.1 0.2 in
  let access = few_large_access 13L in
  let tilde = Tilde.build params access ~seed:4L ~fresh:(Rng.create 41L) in
  let copies = Params.copies_per_bucket params in
  let synth = Array.to_list tilde.Tilde.items |> List.filter (fun it ->
      match it.Tilde.origin with Tilde.Synthetic _ -> true | Tilde.Original _ -> false) in
  Alcotest.(check int) "copies per bucket"
    (copies * Eps.length tilde.Tilde.eps)
    (List.length synth);
  List.iter
    (fun (it : Tilde.item) ->
      Alcotest.(check (float 1e-9)) "synthetic profit = eps^2" 0.04 it.Tilde.profit;
      Alcotest.(check bool) "positive weight" true (it.Tilde.weight > 0.))
    synth

(* ---------- Convert_greedy on hand-built tilde ---------- *)

(* Tie-break-refined code with the smallest salt, so a plain-encoded item
   with the same efficiency still clears the threshold. *)
let refined params eff =
  Domain.refine ~tie_bits:params.Params.tie_bits ~code:(Domain.encode eff) ~salt:0

let manual_tilde ~items ~eps_codes ~capacity =
  {
    Tilde.items;
    large_indices = [||];
    large_profit = 0.;
    eps = { Eps.codes = eps_codes; q = 0.1; trimmed = false };
    capacity;
    samples_used = 0;
  }

let titem params ~profit ~weight ~origin =
  {
    Tilde.profit;
    weight;
    eff_code =
      Domain.refine ~tie_bits:params.Params.tie_bits
        ~code:(Domain.encode (profit /. weight))
        ~salt:0;
    origin;
  }

let test_convert_greedy_prefix_branch () =
  let params = Params.practical 0.2 in
  (* Two large originals that fit, one that does not. *)
  let items =
    [|
      titem params ~profit:0.5 ~weight:0.1 ~origin:(Tilde.Original 7);
      titem params ~profit:0.3 ~weight:0.2 ~origin:(Tilde.Original 2);
      titem params ~profit:0.2 ~weight:0.9 ~origin:(Tilde.Original 5);
    |]
  in
  let d = Convert_greedy.run params (manual_tilde ~items ~eps_codes:[||] ~capacity:0.35) in
  Alcotest.(check bool) "prefix mode" false d.Convert_greedy.b_indicator;
  Alcotest.(check (list int)) "large prefix" [ 2; 7 ] (Solution.indices d.Convert_greedy.index_large);
  Alcotest.(check int) "no small cutoff" Convert_greedy.no_small_cutoff
    d.Convert_greedy.e_small_code

let test_convert_greedy_singleton_branch () =
  let params = Params.practical 0.2 in
  (* A tempting efficient item, then a huge-profit heavy item: the greedy
     prefix holds only the first; the break item dominates. *)
  let items =
    [|
      titem params ~profit:0.05 ~weight:0.01 ~origin:(Tilde.Original 1);
      titem params ~profit:0.9 ~weight:0.99 ~origin:(Tilde.Original 4);
    |]
  in
  let d = Convert_greedy.run params (manual_tilde ~items ~eps_codes:[||] ~capacity:0.99) in
  Alcotest.(check bool) "singleton mode" true d.Convert_greedy.b_indicator;
  Alcotest.(check (list int)) "break item" [ 4 ] (Solution.indices d.Convert_greedy.index_large)

let test_convert_greedy_small_cutoff () =
  let params = Params.practical 0.2 in
  (* Synthetic-only tilde with 5 buckets; capacity passes 3.5 buckets so the
     break item sits in bucket 3 (k = 4), e_small = ẽ_2. *)
  let effs = [| 2.0; 1.5; 1.0; 0.7; 0.5 |] in
  let eps_codes = Array.map (refined params) effs in
  let items =
    Array.concat
      (List.init 5 (fun b ->
           Array.init 5 (fun _ ->
               titem params ~profit:0.04 ~weight:(0.04 /. effs.(b)) ~origin:(Tilde.Synthetic b))))
  in
  (* bucket weights: 5 copies * 0.04/eff = 0.2/eff: 0.1, 0.133, 0.2, 0.2857, 0.4.
     Capacity breaks inside bucket 3 (whose efficiency is ẽ_4 = 0.7), so
     k = 3 and e_small = ẽ_1. *)
  let capacity = 0.1 +. 0.1333333 +. 0.2 +. 0.1 in
  let d = Convert_greedy.run params (manual_tilde ~items ~eps_codes ~capacity) in
  Alcotest.(check bool) "prefix mode" false d.Convert_greedy.b_indicator;
  Alcotest.(check int) "k cut" 3 d.Convert_greedy.k_cut;
  (match d.Convert_greedy.e_small_code with
  | c when c >= 0 -> Alcotest.(check int) "e_small = e_1" (refined params 2.0) c
  | _ -> Alcotest.fail "expected small cutoff");
  Alcotest.(check bool) "no large" true (Solution.cardinal d.Convert_greedy.index_large = 0)

let test_convert_greedy_oversized_singleton_guard () =
  let params = Params.practical 0.2 in
  (* The break item dominates in profit but violates Definition 2.2's
     per-item weight bound: the singleton branch must not fire. *)
  let items =
    [|
      titem params ~profit:0.05 ~weight:0.01 ~origin:(Tilde.Original 1);
      titem params ~profit:0.9 ~weight:2.0 ~origin:(Tilde.Original 4);
    |]
  in
  let d = Convert_greedy.run params (manual_tilde ~items ~eps_codes:[||] ~capacity:0.5) in
  Alcotest.(check bool) "prefix branch taken" false d.Convert_greedy.b_indicator;
  Alcotest.(check (list int)) "only the fitting item" [ 1 ]
    (Solution.indices d.Convert_greedy.index_large)

let test_convert_greedy_empty_tilde () =
  let params = Params.practical 0.2 in
  let d = Convert_greedy.run params (manual_tilde ~items:[||] ~eps_codes:[||] ~capacity:1.) in
  Alcotest.(check bool) "prefix mode" false d.Convert_greedy.b_indicator;
  Alcotest.(check int) "nothing" 0 (Solution.cardinal d.Convert_greedy.index_large)

(* ---------- Mapping_greedy.member rules ---------- *)

(* The rule compiled from (params, seed, decision) and applied to one item. *)
let member params ~seed d item ~index =
  Mapping_greedy.member (Mapping_greedy.compile ~salts:[||] params ~seed d) item ~index

let decision params ?(index_large = []) ?e_small ?(b = false) () =
  {
    Convert_greedy.index_large = Solution.of_indices index_large;
    e_small_code =
      (match e_small with
      | Some e -> refined params e
      | None -> Convert_greedy.no_small_cutoff);
    b_indicator = b;
    prefix_len = 0;
    k_cut = 0;
  }

let test_member_large () =
  let params = Params.practical 0.2 in
  let d = decision params ~index_large:[ 3 ] () in
  let large = Item.make ~profit:0.5 ~weight:0.1 in
  Alcotest.(check bool) "in" true (member params ~seed:1L d large ~index:3);
  Alcotest.(check bool) "out" false (member params ~seed:1L d large ~index:4)

let test_member_small_threshold () =
  let params = Params.practical 0.2 in
  let d = decision params ~e_small:1.0 () in
  let fast = Item.make ~profit:0.01 ~weight:0.005 in
  let slow = Item.make ~profit:0.01 ~weight:0.02 in
  Alcotest.(check bool) "efficient small in" true (member params ~seed:1L d fast ~index:0);
  Alcotest.(check bool) "inefficient small out" false (member params ~seed:1L d slow ~index:1)

let test_member_garbage_never () =
  let params = Params.practical 0.2 in
  (* Even with a cutoff below eps^2 (degenerate EPS), garbage stays out. *)
  let d = decision params ~e_small:0.001 () in
  let garbage = Item.make ~profit:0.01 ~weight:2. in
  Alcotest.(check bool) "garbage out" false (member params ~seed:1L d garbage ~index:0)

let test_member_singleton_blocks_small () =
  let params = Params.practical 0.2 in
  let d = decision params ~index_large:[ 9 ] ~e_small:1.0 ~b:true () in
  let fast = Item.make ~profit:0.01 ~weight:0.005 in
  Alcotest.(check bool) "b_indicator blocks small" false
    (member params ~seed:1L d fast ~index:0)

(* ---------- Mapping_greedy: compiled rule = the per-call rule ---------- *)

(* [Mapping_greedy.member] as it was before the rule was compiled once per
   batch, verbatim: every call takes ε² twice (here and in
   [Partition.classify]) and encodes through [Params.encode_efficiency].
   The compiled rule copies the efficiency, encoding and refinement
   arithmetic in, so it must agree with this on every answer and leave the
   same salt memo. *)
let member_reference ?salt_cache (params : Params.t) ~seed (decision : Convert_greedy.decision)
    item ~index =
  let cutoff = Params.large_profit_cutoff params in
  if item.Item.profit > cutoff then Solution.mem index decision.Convert_greedy.index_large
  else
    let cut = decision.Convert_greedy.e_small_code in
    cut >= 0
    && (not decision.Convert_greedy.b_indicator)
    && Partition.classify ~epsilon:params.Params.epsilon item = Partition.Small
    && Params.encode_efficiency ?salt_cache params ~seed ~index (Item.efficiency item) >= cut

type memo_kind = Absent | Short | Unfilled | Partial | Filled

type rule_case = {
  params : Params.t;
  seed : int64;
  item : Item.t;  (* built as a record, so NaN and zero weights get through *)
  index : int;
  rule_decision : Convert_greedy.decision;
  memo : memo_kind;
}

let memo_universe = 64

(* A fresh copy of the case's memo, or None when it is absent. *)
let memo_of c =
  let salt i = Domain.salt ~seed:c.seed ~index:i in
  match c.memo with
  | Absent -> None
  | Short -> Some (Array.init c.index (fun i -> if i mod 2 = 0 then salt i else -1))
  | Unfilled -> Some (Array.make memo_universe (-1))
  | Partial -> Some (Array.init memo_universe (fun i -> if i mod 3 = 0 then salt i else -1))
  | Filled -> Some (Array.init memo_universe salt)

let print_rule_case c =
  Printf.sprintf
    "eps=%g bits=%d tie_bits=%d seed=%Ld item=(p=%h, w=%h) index=%d large=[%s] cut=%d b=%b memo=%s"
    c.params.Params.epsilon c.params.Params.bits c.params.Params.tie_bits c.seed
    c.item.Item.profit c.item.Item.weight c.index
    (String.concat ";" (List.map string_of_int (Solution.indices c.rule_decision.Convert_greedy.index_large)))
    c.rule_decision.Convert_greedy.e_small_code c.rule_decision.Convert_greedy.b_indicator
    (match c.memo with
    | Absent -> "absent"
    | Short -> "short"
    | Unfilled -> "unfilled"
    | Partial -> "partial"
    | Filled -> "filled")

let rule_case_arb =
  QCheck.make ~print:print_rule_case
    QCheck.Gen.(
      let* epsilon = oneofl [ 0.1; 0.2; 0.25; 0.3 ] in
      let* bits = oneofl [ 16; 32 ] in
      let* tie_bits = oneofl [ 0; 16 ] in
      let params = Params.practical ~bits ~tie_bits epsilon in
      let c = Params.large_profit_cutoff params in
      let* seed = map Int64.of_int (int_bound 1_000_000) in
      let* index = int_bound (memo_universe - 1) in
      (* Scaling by a power of two is exact, so [c *. w] over [w] is
         exactly [c]. *)
      let* pow2 = map (fun k -> ldexp 1. (-k)) (int_bound 12) in
      let* item =
        oneof
          [
            map2 (fun p w -> { Item.profit = p; weight = w }) (float_range 0. (2. *. c)) (float_range 0. 1.);
            map (fun p -> { Item.profit = p; weight = 0. }) (float_range 0. c);
            return { Item.profit = 0.; weight = 0. };
            map (fun w -> { Item.profit = c; weight = w }) (float_range 0. 1.);
            return { Item.profit = c *. pow2; weight = pow2 };
            map (fun p -> { Item.profit = p; weight = 0.01 }) (float_range c 1.);
            map (fun p -> { Item.profit = p; weight = 1. }) (float_range 0. (c *. c));
            return { Item.profit = Float.nan; weight = pow2 };
            return { Item.profit = Float.nan; weight = 0. };
            map (fun p -> { Item.profit = p; weight = Float.nan }) (float_range 0. c);
          ]
      in
      let* in_large = bool in
      let* others = list_size (int_bound 4) (int_bound (memo_universe - 1)) in
      let index_large =
        Solution.of_indices (if in_large then index :: others else List.filter (( <> ) index) others)
      in
      (* The item's own refined code, where it has one. *)
      let eff = Item.efficiency item in
      let code =
        if eff >= 0. then Params.encode_efficiency params ~seed ~index eff else 0
      in
      let* delta = int_range (-2) 2 in
      let* e_small_code =
        oneof
          [
            return Convert_greedy.no_small_cutoff;
            return (max 0 (code + delta));
            return (max 0 (((code asr tie_bits) lsl tie_bits) + delta));
            int_bound (Domain.size (bits + tie_bits) - 1);
          ]
      in
      let* b_indicator = bool in
      let* memo = oneofl [ Absent; Short; Unfilled; Partial; Filled ] in
      return
        {
          params;
          seed;
          item;
          index;
          rule_decision =
            { Convert_greedy.index_large; e_small_code; b_indicator; prefix_len = 0; k_cut = 0 };
          memo;
        })

let prop_compiled_rule_matches_reference =
  QCheck.Test.make ~name:"compiled rule = per-call reference (answers and memo)" ~count:4000
    rule_case_arb (fun c ->
      let reference_memo = memo_of c and rule_memo = memo_of c in
      let expected =
        member_reference ?salt_cache:reference_memo c.params ~seed:c.seed c.rule_decision c.item
          ~index:c.index
      in
      let salts = Option.value rule_memo ~default:[||] in
      let rule = Mapping_greedy.compile ~salts c.params ~seed:c.seed c.rule_decision in
      Mapping_greedy.member rule c.item ~index:c.index = expected && reference_memo = rule_memo)

(* A warm batch allocates the revealed-item array, the answer array and one
   compiled rule: no word per answer beyond those two arrays.  The
   per-call rule took 1,118 minor words for these 100 answers. *)
let test_answer_many_allocation () =
  let params = Params.practical ~sample_scale:0.02 0.2 in
  let inst = Gen.generate Gen.Garbage_mix (Rng.create 3L) ~n:20_000 in
  let algo = Lca_kp.create params (Access.of_instance inst) ~seed:17L in
  let state = Lca_kp.run algo ~fresh:(Rng.create 51L) in
  let d = state.Lca_kp.decision in
  Alcotest.(check bool) "the small branch is open" true
    (d.Convert_greedy.e_small_code >= 0 && not d.Convert_greedy.b_indicator);
  let k = 100 in
  let idx = Array.init k (fun j -> j * 197) in
  let first = Lca_kp.answer_many algo state idx in
  Alcotest.(check bool) "some answers are yes" true (Array.exists Fun.id first);
  let before = Gc.minor_words () in
  ignore (Lca_kp.answer_many algo state idx);
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%g minor words <= 2k + 32" words)
    true
    (words <= float_of_int ((2 * k) + 32))

(* ---------- LCA-KP end-to-end ---------- *)

(* Every answer path applies the one compiled rule: the fold of single
   answers, the batch, the induced solution and the per-call reference over
   the normalized instance agree.  Garbage-mix at n = 300 has large items,
   so both branches of the rule answer. *)
let test_lcakp_answer_matches_solution () =
  let params = Params.practical ~sample_scale:0.1 0.2 in
  List.iter
    (fun (name, access) ->
      let norm = Access.normalized access in
      let n = Instance.size norm in
      let algo = Lca_kp.create params access ~seed:17L in
      let state = Lca_kp.run algo ~fresh:(Rng.create 51L) in
      let sol = Lca_kp.induced_solution algo state in
      let idx = Array.init n Fun.id in
      let folded = Array.map (Lca_kp.answer algo state) idx in
      Array.iteri
        (fun i yes ->
          if yes <> Solution.mem i sol then Alcotest.failf "%s: answer/solution mismatch at %d" name i)
        folded;
      Alcotest.(check bool) (name ^ ": answer_many = fold of answer") true
        (Lca_kp.answer_many algo state idx = folded);
      Alcotest.(check bool) (name ^ ": fold = per-call reference") true
        (Array.map
           (fun i ->
             member_reference params ~seed:17L state.Lca_kp.decision (Instance.item norm i) ~index:i)
           idx
        = folded);
      Alcotest.(check bool) (name ^ ": has large items") true
        (Array.exists (fun i -> Partition.is_large ~epsilon:0.2 (Instance.item norm i)) idx))
    [
      ("few-large", few_large_access ~n:2000 15L);
      ("garbage-mix", Access.of_instance (Gen.generate Gen.Garbage_mix (Rng.create 23L) ~n:300));
    ]

let test_lcakp_feasibility_fuzz () =
  (* Lemma 4.7: the induced solution is feasible — across families, sizes,
     epsilons and seeds. *)
  let fresh = Rng.create 99L in
  let cases = ref 0 in
  List.iter
    (fun family ->
      List.iter
        (fun epsilon ->
          List.iter
            (fun seed ->
              let inst = Gen.generate family (Rng.create (Int64.of_int seed)) ~n:600 in
              let access = Access.of_instance inst in
              let params = Params.practical ~sample_scale:0.002 epsilon in
              let algo = Lca_kp.create params access ~seed:(Int64.of_int (seed * 31)) in
              let state = Lca_kp.run algo ~fresh in
              let sol = Lca_kp.induced_solution algo state in
              incr cases;
              if not (Solution.is_feasible (Access.normalized access) sol) then
                Alcotest.failf "infeasible: %s eps=%.2f seed=%d w=%.4f K=%.4f" (Gen.name family)
                  epsilon seed
                  (Solution.weight (Access.normalized access) sol)
                  (Instance.capacity (Access.normalized access)))
            [ 1; 2; 3 ])
        [ 0.1; 0.15; 0.25 ])
    Gen.all_families;
  Alcotest.(check bool) "ran many cases" true (!cases = 90)

let test_lcakp_quality () =
  (* Lemma 4.8 (relaxed constants for the practical preset): the induced
     solution value is at least OPT/2 − c·ε for a small constant c. *)
  let fresh = Rng.create 123L in
  List.iter
    (fun family ->
      let inst = Gen.generate family (Rng.create 77L) ~n:4000 in
      let access = Access.of_instance inst in
      let norm = Access.normalized access in
      let bracket = Lk_knapsack.Reference.estimate norm in
      let epsilon = 0.12 in
      let params = Params.practical ~sample_scale:0.05 epsilon in
      let algo = Lca_kp.create params access ~seed:5L in
      let state = Lca_kp.run algo ~fresh in
      let value = Solution.profit norm (Lca_kp.induced_solution algo state) in
      let bound = (bracket.Lk_knapsack.Reference.lower /. 2.) -. (8. *. epsilon) in
      if value < bound then
        Alcotest.failf "%s: value %.4f below (1/2)OPT - 8eps = %.4f" (Gen.name family) value bound)
    [ Gen.Uniform; Gen.Few_large; Gen.Garbage_mix; Gen.Heavy_tail ]

let test_lcakp_query_is_stateless () =
  let params = Params.practical ~sample_scale:0.1 0.25 in
  let access = few_large_access ~n:1000 18L in
  let algo = Lca_kp.create params access ~seed:6L in
  (* Same fresh seed => identical run => identical answer. *)
  let a1 = Lca_kp.query algo ~fresh:(Rng.create 1L) 5 in
  let a2 = Lca_kp.query algo ~fresh:(Rng.create 1L) 5 in
  Alcotest.(check bool) "deterministic given randomness" true (a1 = a2)

let test_lcakp_order_oblivious () =
  (* Definition 2.4 for the real algorithm, via the harness. *)
  let access = few_large_access ~n:500 22L in
  let params = Params.practical ~sample_scale:0.05 0.25 in
  let lca = Lk_baselines.Baselines.lca_kp params access ~seed:12L in
  Alcotest.(check bool) "order oblivious" true
    (Lk_lca.Consistency.order_oblivious lca ~probes:(Array.init 100 (fun i -> i * 5))
       ~fresh:(Rng.create 3L))

let test_lcakp_samples_counted () =
  let params = Params.practical ~sample_scale:0.1 0.2 in
  let access = few_large_access ~n:1000 19L in
  let algo = Lca_kp.create params access ~seed:8L in
  let counters = Access.counters access in
  Lk_oracle.Counters.reset counters;
  let state = Lca_kp.run algo ~fresh:(Rng.create 2L) in
  Alcotest.(check int) "oracle counter matches state"
    (Lk_oracle.Counters.weighted_samples counters)
    (Lca_kp.samples_per_query algo state);
  Alcotest.(check bool) "at least the R sample" true
    (Lca_kp.samples_per_query algo state >= Params.r_sample_size params)

(* ---------- IKY value approximation (Lemma 4.4 / E8) ---------- *)

let test_iky_value_bound () =
  let fresh = Rng.create 301L in
  List.iter
    (fun family ->
      let inst = Gen.generate family (Rng.create 88L) ~n:1500 in
      let access = Access.of_instance inst in
      let norm = Access.normalized access in
      let bracket = Lk_knapsack.Reference.estimate norm in
      let epsilon = 0.2 in
      let params = Params.practical ~sample_scale:0.1 epsilon in
      let r = Iky_value.approximate_opt params access ~seed:21L ~fresh in
      (* (1, 6eps)-approximation, with slack for the practical preset. *)
      let lo = bracket.Lk_knapsack.Reference.lower -. (8. *. epsilon) in
      let hi = bracket.Lk_knapsack.Reference.upper +. (8. *. epsilon) in
      if not (r.Iky_value.estimate >= lo && r.Iky_value.estimate <= hi) then
        Alcotest.failf "%s: estimate %.4f outside [%.4f, %.4f]" (Gen.name family)
          r.Iky_value.estimate lo hi;
      Alcotest.(check bool) "tilde is constant-size" true (r.Iky_value.tilde_size < 2000))
    [ Gen.Uniform; Gen.Few_large; Gen.Garbage_mix ]

let () =
  Alcotest.run "lcakp-core"
    [
      ( "params",
        [
          Alcotest.test_case "presets" `Quick test_params_presets;
          Alcotest.test_case "validation" `Quick test_params_validation;
          Alcotest.test_case "sample sizes" `Quick test_params_sizes;
          Alcotest.test_case "theoretical complexity" `Quick test_theoretical_query_complexity;
        ] );
      ( "partition",
        [
          Alcotest.test_case "classify" `Quick test_partition_classify;
          Alcotest.test_case "profile" `Quick test_partition_profile;
        ] );
      ( "eps",
        [
          Alcotest.test_case "empty when large dominates" `Quick test_eps_empty_when_large_dominates;
          Alcotest.test_case "monotone + buckets" `Quick test_eps_monotone_and_buckets;
          Alcotest.test_case "threshold bounds" `Quick test_eps_threshold_bounds;
        ] );
      ( "tilde",
        [
          Alcotest.test_case "collects large items" `Quick test_tilde_collects_large;
          Alcotest.test_case "equal across runs" `Quick test_tilde_equal_across_runs;
          Alcotest.test_case "synthetic items" `Quick test_tilde_synthetic_items;
        ] );
      ( "convert-greedy",
        [
          Alcotest.test_case "prefix branch" `Quick test_convert_greedy_prefix_branch;
          Alcotest.test_case "singleton branch" `Quick test_convert_greedy_singleton_branch;
          Alcotest.test_case "small cutoff" `Quick test_convert_greedy_small_cutoff;
          Alcotest.test_case "empty tilde" `Quick test_convert_greedy_empty_tilde;
          Alcotest.test_case "oversized singleton guard" `Quick test_convert_greedy_oversized_singleton_guard;
        ] );
      ( "mapping-greedy",
        [
          Alcotest.test_case "large rule" `Quick test_member_large;
          Alcotest.test_case "small threshold" `Quick test_member_small_threshold;
          Alcotest.test_case "garbage never" `Quick test_member_garbage_never;
          Alcotest.test_case "singleton blocks small" `Quick test_member_singleton_blocks_small;
          QCheck_alcotest.to_alcotest prop_compiled_rule_matches_reference;
          Alcotest.test_case "answer_many allocation" `Quick test_answer_many_allocation;
        ] );
      ( "lca-kp",
        [
          Alcotest.test_case "answers match induced solution" `Quick test_lcakp_answer_matches_solution;
          Alcotest.test_case "feasibility fuzz (Lemma 4.7)" `Quick test_lcakp_feasibility_fuzz;
          Alcotest.test_case "quality (Lemma 4.8)" `Quick test_lcakp_quality;
          Alcotest.test_case "stateless determinism" `Quick test_lcakp_query_is_stateless;
          Alcotest.test_case "sample accounting" `Quick test_lcakp_samples_counted;
          Alcotest.test_case "order obliviousness (Def 2.4)" `Quick test_lcakp_order_oblivious;
        ] );
      ( "iky-value",
        [ Alcotest.test_case "value bound (Lemma 4.4)" `Quick test_iky_value_bound ] );
    ]
