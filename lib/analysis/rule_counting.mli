(** [counting-discipline]: confine [Lk_counting.Robp] (and the raw DP
    internals [State_dp]/[Count_scratch]) to [lib/counting].

    The frozen branching program answers weight lookups without charging
    the oracle, so any consumer outside the counting facades could count
    probes-for-free and silently break the query-accounting invariant the
    E13/E14 experiments gate on.  Everyone else calls [Exact.count],
    [Gkm.count], [Svv.count] or [Sampler.of_oracle] with the oracle
    itself — same confinement shape as [observability-discipline]. *)

val id : string
val check : file:string -> Tokenizer.token array -> Finding.t list
