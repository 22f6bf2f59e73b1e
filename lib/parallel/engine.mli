(** Deterministic multicore fan-out over independent trials.

    Every empirical claim in this reproduction is an average over
    independent trials, and the LCA model itself (Definition 2.2, after
    [RTVX11]) is a set of parallel queries sharing one read-only random
    seed.  This engine runs [trials] independent computations across a pool
    of OCaml 5 [Domain]s with exactly that shape:

    - trial [i] receives its own SplitMix64 stream, [Rng.split_at base i],
      derived by index from the shared base generator;
    - chunks of the index range are handed to domains dynamically (an
      atomic cursor), which balances load but cannot influence values;
    - results are merged in trial-index order into an array.

    The output is therefore {b bitwise identical} for every [jobs] value —
    [run ~jobs:1] and [run ~jobs:64] return the same array — and the serial
    path is just [jobs = 1], the default.  Trial functions must draw
    randomness only from the [rng] they are given and must not write shared
    state.  A trial that charges oracle accesses gets its own
    [Lk_oracle.Counters.t] through [Lk_oracle.Access.with_counters], and
    the caller merges them in index order after the run, as
    [Lk_serve.Server.serve] does.

    {b Failures.}  When trials raise, the call raises the exception of the
    lowest failing index, with its backtrace, at every [jobs] value.  It
    does so only after every worker domain has been joined, so no trial is
    still running when the exception reaches the caller.  Trials above the
    lowest failing index may or may not have run. *)

(** [run ?jobs ~base ~trials f] computes
    [[| f ~index:0 ~rng:r0; ...; f ~index:(trials-1) ~rng:r_(trials-1) |]]
    where [r_i = Rng.split_at base i].  [base] is not perturbed.  [jobs]
    defaults to 1 and is clamped to [trials]; chunks are {!Chunk.size}
    wide.  Raises [Invalid_argument] on [jobs < 1] or [trials < 0]. *)
val run :
  ?jobs:int ->
  base:Lk_util.Rng.t ->
  trials:int ->
  (index:int -> rng:Lk_util.Rng.t -> 'a) ->
  'a array

(** [run_traced] is {!run} for trial functions that emit trace events:
    when [sink] is enabled, trial [i] records into a private
    default-capacity recorder, and at the barrier the per-trial streams
    are appended to [sink] in index order, each bracketed as
    [Trial_start i; Rng_split "trial-i"; ...events...; Trial_end i]
    (per-trial ring overflow is carried over via the parent's dropped
    count).  The merged stream is therefore identical
    for every [jobs] value.  When [sink] is disabled, trials receive
    {!Lk_obs.Obs.null} and this is exactly {!run}. *)
val run_traced :
  ?jobs:int ->
  sink:Lk_obs.Obs.sink ->
  base:Lk_util.Rng.t ->
  trials:int ->
  (index:int -> rng:Lk_util.Rng.t -> sink:Lk_obs.Obs.sink -> 'a) ->
  'a array
