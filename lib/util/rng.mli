(** Deterministic, splittable pseudo-random number generator (SplitMix64).

    Every source of randomness in the project flows through this module so
    that experiments are reproducible bit-for-bit.  An LCA in the sense of
    the paper (Definition 2.2) is given a read-only random seed [r]; we model
    [r] as an [int64] from which a generator — and, via {!split} and
    {!of_path}, arbitrarily many independent sub-generators — is derived
    deterministically. *)

type t

(** [create seed] returns a fresh generator seeded with [seed].  Two
    generators created from equal seeds produce identical streams. *)
val create : int64 -> t

(** [of_int seed] is [create (Int64.of_int seed)]. *)
val of_int : int -> t

(** [copy t] duplicates the generator state; the copy evolves
    independently. *)
val copy : t -> t

(** A captured generator state.  Two generators whose snapshots are equal
    will produce identical streams from that point on — this is the cache
    key of the {!Lk_lcakp.Lca_kp} run-state memoization: a run is a pure
    function of [(params, seed, access, snapshot)]. *)
type snapshot

(** [snapshot t] captures [t]'s current state without perturbing it. *)
val snapshot : t -> snapshot

(** [restore t s] rewinds (or fast-forwards) [t] to the captured state [s];
    [t] then replays exactly the stream it produced after [snapshot]
    returned [s]. *)
val restore : t -> snapshot -> unit

val snapshot_equal : snapshot -> snapshot -> bool

(** Mixed (avalanched) hash of a snapshot, suitable for [Hashtbl] keying —
    raw SplitMix64 states of related generators differ by small multiples
    of the golden gamma, so the identity hash would cluster. *)
val snapshot_hash : snapshot -> int

(** [split t] advances [t] and returns a new generator whose stream is
    independent (in the SplitMix64 sense) of the remainder of [t]'s. *)
val split : t -> t

(** [split_at t i] derives the [i]-th child generator from [t]'s *current*
    state without perturbing [t]: [split_at t i] equals the generator that
    [split] would return after advancing a copy of [t] by [i] steps.
    Distinct indices yield independent (in the SplitMix64 sense) streams,
    and the same [(t, i)] always yields the same stream — this is the basis
    for per-trial randomness in {!Lk_parallel.Engine}, where trial [i] must
    see the same stream no matter which domain runs it.  Raises
    [Invalid_argument] if [i < 0]. *)
val split_at : t -> int -> t

(** [of_path seed labels] derives a generator deterministically from a base
    seed and a list of string labels, e.g. [of_path r ["rquantile"; "k=3"]].
    Used to give each shared-randomness consumer its own stream, so that two
    LCA runs with the same seed derive identical internal randomness no
    matter how much other randomness each run consumed. *)
val of_path : int64 -> string list -> t

(** [of_path_int seed labels i] is [of_path seed (labels @ [string_of_int i])]:
    the decimal digits of [i] are hashed in place, so deriving one stream
    per item index (e.g. [Lk_repro.Domain.salt]) builds no string. *)
val of_path_int : int64 -> string list -> int -> t

(** Next raw 64-bit output. *)
val int64 : t -> int64

(** [bits53 t] is a uniform integer in [[0, 2^53)]. *)
val bits53 : t -> int

(** [int_bound t n] is uniform in [[0, n-1]]; [n] must be positive. *)
val int_bound : t -> int -> int

(** [int_range t lo hi] is uniform in [[lo, hi]] inclusive. *)
val int_range : t -> int -> int -> int

(** [float t] is uniform in [[0, 1)]. *)
val float : t -> float

(** [uniform t a b] is uniform in [[a, b)]. *)
val uniform : t -> float -> float -> float

(** [bool t] is a fair coin flip. *)
val bool : t -> bool

(** [bernoulli t p] is [true] with probability [p]. *)
val bernoulli : t -> float -> bool

(** [exponential t rate] samples Exp(rate). *)
val exponential : t -> float -> float

(** [pareto t ~alpha ~xmin] samples a Pareto(α) variate with scale [xmin]. *)
val pareto : t -> alpha:float -> xmin:float -> float

(** [shuffle t a] permutes [a] in place (Fisher–Yates). *)
val shuffle : t -> 'a array -> unit

(** [choose t a] picks a uniform element of the non-empty array [a]. *)
val choose : t -> 'a array -> 'a

(** [sample_distinct t ~n ~k] draws [k] distinct indices uniformly from
    [[0, n-1]] (Floyd's algorithm); [k <= n] required. *)
val sample_distinct : t -> n:int -> k:int -> int list
