(** LCA-KP (Algorithm 2): the paper's main result, Theorem 4.1 — a local
    computation algorithm that, given weighted-sampling access to a Knapsack
    instance, answers "is item i in the solution?" consistently with one
    (1/2, 6ε)-approximate feasible solution, using
    (1/ε)^{O(log* n)} samples per query and no state between queries.

    Usage model (Definitions 2.2–2.4):
    - [create] binds the algorithm to an instance's oracles and the shared
      read-only random seed [r];
    - every {!query} is a complete stateless run: it draws fresh samples,
      rebuilds Ĩ, re-runs CONVERT-GREEDY, and answers — two queries share
      nothing but [r] (parallelizability);
    - {!run} exposes a single run's intermediate state so experiments can
      inspect Ĩ, count samples, and materialize the induced solution via
      MAPPING-GREEDY.

    {2 Run-state memoization}

    A run is a pure function of [(params, seed, access, fresh-rng state)],
    so {!query} memoizes run states in a deterministic cache keyed by
    [(Params.digest, seed, Rng.snapshot fresh)].  A hit replays the run's
    observable effects exactly — it fast-forwards [fresh] to the state the
    real run would leave it in and re-charges the run's full oracle sample
    bill to the access counters — so answers, downstream RNG streams, and
    query accounting are all bit-identical with the cache on or off; only
    wall-clock changes.  Hits/misses are recorded on
    {!Lk_oracle.Counters} as separate (non-charged) bookkeeping, and
    [~cache:false] bypasses the cache entirely. *)

type t

type state = {
  tilde : Tilde.t;
  decision : Convert_greedy.decision;
}

(** [create ?cache_size params access ~seed] — [cache_size] bounds the
    number of memoized run states (FIFO eviction; default 64; 0 disables
    memoization for this instance altogether).

    One [t] (with all its {!with_access} views) must not {!run} or
    {!prepare} on two domains at once: the memo and the preparation arena
    ({!Prep_arena}) are unsynchronized, and the arena's code buffer and
    sort scratch are clobbered by every build.  Parallel trials create one
    [t] each. *)
val create : ?cache_size:int -> Params.t -> Lk_oracle.Access.t -> seed:int64 -> t

val params : t -> Params.t
val access : t -> Lk_oracle.Access.t

(** [with_access t access] is a view of [t] charging and tracing through
    [access] while {b sharing} [t]'s memo cache (the cache is a mutable
    structure common to all views).  [access] must expose the same
    instance contents as [t]'s — typically an
    [Lk_oracle.Access.with_counters] / [with_sink] view of it; the serving
    pool uses this to route per-window accounting through fresh counters
    without losing the warm prepared-state cache. *)
val with_access : t -> Lk_oracle.Access.t -> t

(** One stateless run of lines 1–19 (sampling + Ĩ + CONVERT-GREEDY).
    Never consults the cache: experiments that measure the per-run
    sampling bill use this directly. *)
val run : t -> fresh:Lk_util.Rng.t -> state

(** [prepare ?cache t ~fresh] runs lines 1–19 and returns the reusable run
    state — {!run} through the memo cache ([cache] defaults to [true];
    [~cache:false] recomputes).  [prepare] + repeated {!answer} is the
    serving decomposition: preparation costs the full sampling bill once,
    each answer then costs one index query. *)
val prepare : ?cache:bool -> t -> fresh:Lk_util.Rng.t -> state

(** [answer t state i] — lines 20–24: reveal item [i] (one index query) and
    apply the decision rule. *)
val answer : t -> state -> int -> bool

(** [answer_many t state idx] answers every index in [idx] against one
    prepared state.  Byte-identical to folding {!answer} and the oracle
    bill is the same ([Array.length idx] index queries), but the reveals
    are amortized: one bulk counter charge, one [Index_batch] trace event
    ({!Lk_oracle.Access.query_many}). *)
val answer_many : t -> state -> int array -> bool array

(** [query ?cache t ~fresh i] — the LCA proper: a stateless run followed by
    {!answer}.  Cost: [Tilde.samples_used] weighted samples + 1 index
    query (charged identically whether the run is recomputed or replayed
    from the cache).  [cache] defaults to [true]. *)
val query : ?cache:bool -> t -> fresh:Lk_util.Rng.t -> int -> bool

(** [(hits, misses)] recorded so far on this instance's access counters. *)
val cache_stats : t -> int * int

(** The full solution C the given run answers according to
    (MAPPING-GREEDY over the normalized instance). *)
val induced_solution : t -> state -> Lk_knapsack.Solution.t

(** Samples drawn by one run (the measured query complexity, experiment
    E9). *)
val samples_per_query : t -> state -> int
