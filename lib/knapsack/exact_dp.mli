(** Exact dynamic programming for integer Knapsack.

    Two classical formulations:
    - {!solve}: table over residual capacities, O(n·K) time and
      O(n·K) bits for solution reconstruction;
    - {!min_weight_per_profit}: table over achievable profits, the engine of
      the FPTAS (Williamson–Shmoys §3.2, referenced by the paper's footnote
      on rounding).

    Plain boxed arrays and one [Bytes] bit row per item: no program runs
    these solvers, so they are written to be obviously correct.  They are
    the exact optimum the tests check {!Branch_bound}, {!Meet_middle},
    {!Nemhauser_ullmann}, {!Fptas} and the greedy bounds against. *)

(** [solve inst] returns an optimal solution (as indices of the instance)
    together with its value. *)
val solve : Int_instance.t -> int * Solution.t

(** [value inst] is the optimal value only, O(K) memory. *)
val value : Int_instance.t -> int

(** [min_weight_per_profit inst] returns [(table, best)], where [table.(p)]
    is the minimum weight achieving total profit exactly [p] (or
    [max_int] when unreachable), and [best] is the optimal total profit.
    [best] is tracked inside the DP update loop (entries only decrease, so
    the first time [table.(p)] dips under the capacity is definitive) —
    there is no closing O(Σp) feasibility scan. *)
val min_weight_per_profit : Int_instance.t -> int array * int

(** [solve_by_profit inst] reconstructs an optimal solution through the
    profit-indexed table; equal value to {!solve}, used as a cross-check.
    Reconstruction keeps, per item, the ascending profit levels at which
    its update won, and walks the items backwards by binary search. *)
val solve_by_profit : Int_instance.t -> int * Solution.t
