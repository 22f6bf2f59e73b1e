(** Reference optimum estimation for experiment-scale instances.

    Exact DP is O(n·K) and the FPTAS is O(n·Σp'); both explode on large
    normalized instances, so experiments need a bracketing fallback:

    - upper bound: the fractional (Dantzig) relaxation — always cheap, and
      within one item-profit of OPT;
    - lower bound: the greedy 1/2-approximation, upgraded to the FPTAS when
      its table volume fits a cost budget.

    [estimate] picks the tightest bracket affordable within [budget_cells]
    DP cells.

    {!fptas_naive} is the boxed-array / per-row-[Bytes] FPTAS that
    predates the flat {!Dp_scratch} arena; the differential property tests
    pin the Bigarray kernel of {!Fptas} to it, output for output. *)

(** Equal output to {!Fptas.solve}. *)
val fptas_naive : epsilon:float -> Instance.t -> float * Solution.t

type bracket = {
  lower : float;  (** value of an actual feasible solution *)
  upper : float;  (** fractional upper bound on OPT *)
  method_used : string;
}

(** Width of the bracket relative to the upper bound. *)
val gap : bracket -> float

(** [estimate ?budget_cells ?fptas_epsilon inst] — default budget 2·10^8
    cells, default FPTAS ε = 0.05. *)
val estimate : ?budget_cells:int -> ?fptas_epsilon:float -> Instance.t -> bracket
