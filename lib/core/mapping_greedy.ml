module Item = Lk_knapsack.Item
module Instance = Lk_knapsack.Instance
module Solution = Lk_knapsack.Solution

(* Everything the rule needs that does not depend on the item, worked out
   once: [member] then reads fields and calls nothing that takes or
   returns a float.  Under dune's dev profile every library is compiled
   [-opaque], so no call into another module is inlined and each float
   crossing one is boxed (DESIGN.md §13). *)
type rule = {
  cutoff : float;  (* ε², the large-profit and the small-efficiency cut-off *)
  index_large : Solution.t;
  small_open : bool;  (* e_small_code >= 0 and the prefix branch *)
  cut : int;  (* e_small_code, a refined code *)
  top : int;  (* 2^bits - 1, the code of an infinite efficiency *)
  cells : float;  (* 2^bits *)
  tie_bits : int;
  tie_mask : int;  (* 2^tie_bits - 1 *)
  seed : int64;
  salts : int array;  (* tie-salt memo, [-1] = unfilled *)
}

let compile ~salts (params : Params.t) ~seed (decision : Convert_greedy.decision) =
  let cells = Lk_repro.Domain.size params.Params.bits in
  {
    cutoff = Params.large_profit_cutoff params;
    index_large = decision.Convert_greedy.index_large;
    small_open =
      decision.Convert_greedy.e_small_code >= 0 && not decision.Convert_greedy.b_indicator;
    cut = decision.Convert_greedy.e_small_code;
    top = cells - 1;
    cells = float_of_int cells;
    tie_bits = params.Params.tie_bits;
    tie_mask = Lk_repro.Domain.size params.Params.tie_bits - 1;
    seed;
    salts;
  }

(* [Params.encode_efficiency]'s memo read: an index beyond the memo
   recomputes, an unfilled slot is filled. *)
let salt r index =
  if index < Array.length r.salts then begin
    let s = Array.unsafe_get r.salts index in
    if s >= 0 then s
    else begin
      let s = Lk_repro.Domain.salt ~seed:r.seed ~index in
      Array.unsafe_set r.salts index s;
      s
    end
  end
  else Lk_repro.Domain.salt ~seed:r.seed ~index

(* Lines 20–24.  The efficiency, [Partition.classify]'s Small test,
   [Domain.encode] and [Domain.refine] are copied in, operation for
   operation, so that the floats stay unboxed locals; test_core pins the
   copy to the rule it replaced. *)
let[@hot] member r (item : Item.t) ~index =
  let profit = item.Item.profit in
  if profit > r.cutoff then Solution.mem index r.index_large
  else
    r.small_open
    &&
    let weight = item.Item.weight in
    (* [Item.efficiency]; its zero-weight test is exact, as there *)
    let eff = if Float.equal weight 0. then infinity else profit /. weight in
    (* Garbage stays out.  Past this test [eff] is neither NaN nor
       negative, so [Domain.encode]'s range check cannot fail. *)
    eff >= r.cutoff
    &&
    let salt = salt r index in
    let code =
      if eff = infinity then r.top
      else
        let c = int_of_float (eff /. (1. +. eff) *. r.cells) in
        if r.top <= c then r.top else c
    in
    let refined =
      if r.tie_bits = 0 then code else (code lsl r.tie_bits) lor (salt land r.tie_mask)
    in
    refined >= r.cut

let solution r instance =
  let acc = ref Solution.empty in
  for i = 0 to Instance.size instance - 1 do
    if member r (Instance.item instance i) ~index:i then acc := Solution.add i !acc
  done;
  !acc
