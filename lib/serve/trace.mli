(** Deterministic synthetic query traces for the serving tier.

    A trace is a sequence of (instance, item) point queries drawn from two
    independent Zipf distributions — instance popularity (how many
    distinct instances, and so answer batches, a window touches) and
    per-instance item popularity — generated entirely from a seed through
    {!Lk_util.Rng}.  The same
    [(seed, sizes, length, thetas)] always yields the same entry array, on
    every platform: traces are the replayable inputs the [@serve-smoke]
    jobs-invariance gate and BENCH_PR7 baselines are defined over. *)

type entry = { instance : int; item : int }

type t

(** [generate ?theta_instances ?theta_items ~seed ~sizes ~length ()] draws
    [length] entries: ranks over [Array.length sizes] instances
    ([theta_instances], default 1.1) and, within the drawn instance [i],
    over [sizes.(i)] items ([theta_items], default 1.0).  A theta of 0 is
    uniform; larger values skew toward low indices.  Raises
    [Invalid_argument] on empty/non-positive sizes, negative length, or a
    negative/non-finite theta. *)
val generate :
  ?theta_instances:float ->
  ?theta_items:float ->
  seed:int64 ->
  sizes:int array ->
  length:int ->
  unit ->
  t

val entries : t -> entry array
val length : t -> int

(** Per-instance query counts (histogram of the instance marginal). *)
val instance_counts : n_instances:int -> t -> int array
