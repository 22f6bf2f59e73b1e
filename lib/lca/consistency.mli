(** Consistency measurement (Definitions 2.3–2.4, Lemma 4.9).

    An LCA is consistent when independent runs (same shared seed, fresh
    sampling randomness) answer according to the same solution.  We measure
    two granularities over [runs] independent runs:

    - {e per-query agreement}: for each probe index, the probability two
      random runs give the same answer (Σ over answers of frequency²),
      averaged and worst-cased over probes;
    - {e full-solution match}: the probability two random runs induce the
      *identical* solution — the strict Lemma 4.9 event. *)

type report = {
  runs : int;
  probes : int;
  mean_query_agreement : float;
  worst_query_agreement : float;
  solution_match : float;  (** pairwise probability of identical solutions *)
  distinct_solutions : int;
  mean_samples_per_run : float;
}

(** [measure ?jobs lca ~probes ~runs ~fresh] runs the LCA [runs] times on
    {!Lk_parallel.Engine} over [jobs] domains (default 1) and scores
    agreement.  Run [i] uses the index-derived stream
    [Rng.split_at fresh i] and results merge in run order, so the report is
    bitwise identical for every [jobs] value.  The runs share whatever
    oracle bundle [lca] closes over, whose plain-int counters are exact
    only at [jobs = 1]; the report reads none of them. *)
val measure :
  ?jobs:int ->
  Lca.t -> probes:int array -> runs:int -> fresh:Lk_util.Rng.t -> report

(** [order_oblivious lca ~probes ~fresh] checks Definition 2.4 on one run:
    answering the probes forward, backward, and with repetitions must give
    identical results (catches accidental mutable state in an
    implementation — a correct LCA's answers are a pure function of the
    seed and the run's sample). *)
val order_oblivious : Lca.t -> probes:int array -> fresh:Lk_util.Rng.t -> bool
