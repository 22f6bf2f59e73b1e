(** Metrics registry: named counters, gauges, and log-scaled histograms
    with a deterministic snapshot-to-Json exporter and a [diff] operation
    for before/after comparisons.

    Everything recorded here is a function of the run's seeds — metric
    *values* are deterministic (query counts, event totals),
    which is what makes snapshots diffable across runs and commits.
    Registries are single-domain: concurrent trials use per-trial sinks
    (see {!Lk_parallel.Engine}) whose events are merged before metering. *)

type t

val create : unit -> t

type counter
type gauge
type histogram

(** [counter t name] returns the counter registered under [name],
    creating it on first use.  Raises [Invalid_argument] if [name] is
    already registered as a different instrument type. *)
val counter : t -> string -> counter

val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

(** [incr ?by c] — [by] defaults to 1 and must be non-negative. *)
val incr : ?by:int -> counter -> unit

val set : gauge -> float -> unit

(** [observe h v] adds [v] to the histogram.  Buckets are log-scaled:
    bucket 0 holds values < 1, bucket [i >= 1] holds [[2^(i-1), 2^i)); the
    boundary walk uses exact float doubling, so bucketing is deterministic
    across platforms.  Raises [Invalid_argument] when [v] is negative or
    NaN — every metered quantity in the tree is a count. *)
val observe : histogram -> float -> unit

(** Number of buckets (64: bucket 63 is unbounded above). *)
val nbuckets : int

type hist_snapshot = {
  count : int;
  sum : float;
  min_v : float;  (** meaningful only when [count > 0] *)
  max_v : float;
  nonzero : (int * int) list;  (** (bucket index, count), ascending *)
}

(** An immutable registry snapshot, every section sorted by name. *)
type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_snapshot) list;
}

val snapshot : t -> snapshot
val equal : snapshot -> snapshot -> bool

(** Schema tag of the exported file: ["lca-knapsack-metrics/1"]. *)
val schema : string

(** Deterministic export (sections and names in sorted order). *)
val to_json : snapshot -> Lk_benchkit.Json.t

val of_json : Lk_benchkit.Json.t -> (snapshot, string) result

(** [diff ~before ~after] — counters and histogram counts/sums/buckets
    subtract ([before]-only names drop, missing baselines count as zero);
    gauges and histogram min/max are point-in-time, so the [after] values
    are kept. *)
val diff : before:snapshot -> after:snapshot -> snapshot
