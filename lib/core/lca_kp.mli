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

    Serving ([Lk_serve.Server]) prepares a state once per instance with
    {!prepare} and answers from it with {!answer_many}; the server, not
    this module, keeps prepared states. *)

type t

type state = {
  tilde : Tilde.t;
  decision : Convert_greedy.decision;
}

(** [create params access ~seed] binds the algorithm to [access] and the
    shared seed [r].

    One [t] (with all its {!with_access} views) must not {!run} or
    {!prepare} on two domains at once: the preparation arena
    ({!Prep_arena}) is unsynchronized, and its code buffer and sort scratch
    are clobbered by every build.  Parallel trials create one [t] each. *)
val create : Params.t -> Lk_oracle.Access.t -> seed:int64 -> t

(** [with_access t access] is a view of [t] charging and tracing through
    [access] while {b sharing} [t]'s preparation arena, and so its tie-salt
    memo.  [access] must expose the same instance contents as [t]'s —
    typically an [Lk_oracle.Access.with_counters] / [with_sink] view of it;
    the server uses this to route per-window accounting through fresh
    counters while answers keep reading warm salts. *)
val with_access : t -> Lk_oracle.Access.t -> t

(** One stateless run of lines 1–19 (sampling + Ĩ + CONVERT-GREEDY).
    Every call draws fresh samples and pays the full sampling bill. *)
val run : t -> fresh:Lk_util.Rng.t -> state

(** [prepare] is {!run} under its serving name: [prepare] + repeated
    {!answer} is the serving decomposition, where preparation costs the
    full sampling bill once and each answer then costs one index query. *)
val prepare : t -> fresh:Lk_util.Rng.t -> state

(** [answer t state i] — lines 20–24: reveal item [i] (one index query) and
    apply the decision rule. *)
val answer : t -> state -> int -> bool

(** [answer_many t state idx] answers every index in [idx] against one
    prepared state.  Byte-identical to folding {!answer} and the oracle
    bill is the same ([Array.length idx] index queries), but the reveals
    are amortized: one bulk counter charge, one [Index_batch] trace event
    ({!Lk_oracle.Access.query_many}), and the rule is compiled once for
    the batch ({!Mapping_greedy.compile}). *)
val answer_many : t -> state -> int array -> bool array

(** [query t ~fresh i] — the LCA proper: a stateless {!run} followed by
    {!answer}.  Cost: [Tilde.samples_used] weighted samples + 1 index
    query. *)
val query : t -> fresh:Lk_util.Rng.t -> int -> bool

(** The full solution C the given run answers according to
    (MAPPING-GREEDY over the normalized instance). *)
val induced_solution : t -> state -> Lk_knapsack.Solution.t

(** Samples drawn by one run (the measured query complexity, experiment
    E9). *)
val samples_per_query : t -> state -> int
