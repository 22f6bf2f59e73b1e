(** Equally Partitioning Sequences (Definition 4.3) via reproducible
    quantiles (Algorithm 2, lines 4–17).

    Given the encoded efficiencies of a fresh weighted sample of small/
    garbage items, computes the threshold sequence ẽ_1 ≥ … ≥ ẽ_t' where
    ẽ_k is a reproducible (1 − k·q)-quantile.  All thresholds live in the
    *encoded* domain so that cross-run comparisons are exact. *)

type t = {
  codes : int array;  (** ẽ_1 … ẽ_t' as domain codes, non-increasing *)
  q : float;  (** the per-bucket profit mass target (line 5) *)
  trimmed : bool;  (** whether ẽ_t was dropped because it fell below ε² *)
}

val empty : t
val length : t -> int

(** [threshold t k] is ẽ_k (1-based), as a domain code. *)
val threshold : t -> int -> int

(** [compute params ~seed ~large_profit ~encoded_efficiencies] runs lines
    4–17 of Algorithm 2: derives q and t from [large_profit] = p(L(Ĩ)),
    calls rQuantile once per k with shared randomness derived from [seed]
    (query-independent, so every run of the LCA derives identical
    randomness), enforces monotonicity, and trims a final threshold lying
    below ε².  Returns {!empty} when [1 − large_profit < ε] or when the
    sample is too small to be meaningful.

    The sample is prepared once ({!Lk_repro.Rmedian.prepare}) and read by
    all t quantile calls.  [?scratch] is an optional reusable workspace of
    length ≥ [Array.length encoded_efficiencies] that holds the sorted
    rQuantile bootstrap chunks; contents are clobbered, results are
    unchanged. *)
val compute :
  ?scratch:int array ->
  Params.t ->
  seed:int64 ->
  large_profit:float ->
  encoded_efficiencies:int array ->
  t

(** [is_eps_for params ~instance t] — reference check of Definition 4.3
    against a full instance: every bucket of small items has normalized
    profit in [ε, ε+ε²), the last in [0, ε+ε²).  Returns the list of bucket
    masses for reporting, and whether all lie in range.  Experiment E8 /
    tests use it; the LCA itself never reads the full instance. *)
val is_eps_for :
  Params.t -> seed:int64 -> instance:Lk_knapsack.Instance.t -> t -> bool * float array
