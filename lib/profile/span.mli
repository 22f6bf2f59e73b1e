(** Span-tree reconstruction over a recorded event stream.

    A trace (lib/obs) is flat: [Phase_enter]/[Phase_exit] and
    [Trial_start]/[Trial_end] markers interleaved with cost-bearing
    events.  This module rebuilds the nesting those brackets encode and
    attributes every cost-bearing event to the innermost open span, which
    is what turns a flight-recorder stream into a profile: each span knows
    its {e self} cost (events attributed directly to it) and its {e total}
    cost (self plus all descendants).

    Reconstruction never raises on malformed streams — an unmatched or
    misnamed bracket is reported as a human-readable issue and skipped, and
    spans left open at end-of-stream are closed there (and reported).  A
    stream is {e balanced} iff the issue list comes back empty. *)

(** Cost vector attributed to a span.  [weighted_samples] counts a
    [Weighted_batch k] as [k] draws (matching {!Lk_oracle.Counters} and the
    sink meters); [events] counts every attributed event once, including
    shapes with no dedicated field (e.g. [Partition]). *)
type cost = {
  events : int;
  index_queries : int;
  weighted_samples : int;
  rng_splits : int;
}

val zero : cost
val add : cost -> cost -> cost

(** [queries c] — the paper's headline quantity: oracle probes charged to
    the span, [index_queries + weighted_samples]. *)
val queries : cost -> int

type t = {
  name : string;  (** phase name; ["trial"] for trial spans, ["root"] at top *)
  trial : int option;  (** [Some i] for a [Trial_start i] bracket *)
  start : int;  (** event index of the opening bracket (0 for the root) *)
  stop : int;  (** one past the closing bracket's event index *)
  self : cost;
  total : cost;
  children : t list;  (** in stream order *)
}

(** [display_name s] is [s.name], or ["trial-<i>"] for trial spans. *)
val display_name : t -> string

(** [of_events events] reconstructs the tree under a synthetic ["root"]
    span covering the whole stream, plus the list of balance issues
    (empty iff every bracket matched). *)
val of_events : Lk_obs.Event.t list -> t * string list
