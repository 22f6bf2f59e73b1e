(** Query-complexity profiles: deterministic aggregation of a span tree
    into per-phase cost rows plus per-trial query quantiles, with a
    byte-stable JSON serialization (schema ["lca-knapsack-obs/1"]) and the
    comparison logic behind [bin/obs_gate].

    Everything here is a pure function of the event stream, which under
    the parallel engine is itself invariant to the jobs count — so
    profiling the same seeds at [--jobs 1/2/4] yields byte-identical
    profile files, and a committed profile is a regression baseline the
    same way a committed BENCH file is. *)

(** One aggregation row: every span whose root-to-span name path equals
    [path] (joined with [';'], trial spans contributing ["trial"]),
    with occurrence count and summed self/total costs. *)
type row = { path : string; count : int; self : Span.cost; total : Span.cost }

(** Distribution of per-trial total query cost ({!Span.queries} of each
    trial span), quantiles via {!Lk_stats.Empirical} (exact, integer). *)
type trial_stats = {
  trials : int;
  sum : int;
  min_q : int;
  q25 : int;
  q50 : int;
  q90 : int;
  max_q : int;
}

type t = {
  label : string;
  dropped : int;  (** ring-buffer drops recorded by the trace *)
  issues : string list;  (** bracket-balance issues; empty = balanced *)
  rows : row list;  (** sorted by path *)
  trial_queries : trial_stats option;  (** [None] when the stream has no trials *)
}

val balanced : t -> bool

(** [of_events ~label ?dropped events] — reconstruct, attribute, aggregate. *)
val of_events : label:string -> ?dropped:int -> Lk_obs.Event.t list -> t

val of_trace : Lk_obs.Trace.t -> t

(** Schema tag of the exported file: ["lca-knapsack-obs/1"]. *)
val schema : string

val to_json : t -> Lk_benchkit.Json.t

(** [of_json j] accepts exactly the keys {!to_json} writes, at every
    level: an unknown key is an [Error], so a stale field in a baseline
    cannot be ignored silently. *)
val of_json : Lk_benchkit.Json.t -> (t, string) result

val save : string -> t -> unit

(** [load path] returns every I/O, parse and schema error as [Error],
    naming [path] once ({!Lk_benchkit.Json.load_file}). *)
val load : string -> (t, string) result

(** {2 Regression gate} *)

(** One drifted quantity: [field] (e.g. ["total.samples"]) of the row at
    [dpath], or the pseudo-row ["(trace)"] for stream-level quantities. *)
type drift = { dpath : string; field : string; baseline : int; candidate : int }

type comparison = {
  missing : string list;  (** paths only in the baseline *)
  added : string list;  (** paths only in the candidate *)
  drifts : drift list;
}

(** [gate ~tolerance ~baseline ~candidate] compares the two profiles
    row-by-row: a field drifts when [|candidate - baseline|] exceeds
    [tolerance * baseline] (so [tolerance = 0.] demands exact equality —
    the default stance, since query counts are deterministic).  Path-set
    mismatches are reported separately in [missing]/[added] rather than
    silently shrinking the compared set. *)
val gate : tolerance:float -> baseline:t -> candidate:t -> comparison

(** Deterministic human-readable report of a comparison. *)
val render_comparison : tolerance:float -> comparison -> string
