(** Observability façade — the {b single entry point} for trace-event
    emission.  The [observability-discipline] lint rule bans raw
    [Sink]/[Ring] access outside [lib/obs], so every event in the tree
    provably flows through [Obs.emit] (or one of the specialized
    [emit_*] wrappers below, which are front-ends to it): determinism of
    the event stream is auditable at this one seam.

    A disabled sink ({!null}) costs one branch per instrumentation site —
    the specialized emitters test {!enabled} before allocating the event —
    so instrumented hot paths are zero-cost when tracing is off. *)

type sink

(** The disabled sink: nothing is recorded, nothing is metered. *)
val null : sink

(** Default ring capacity (65536 events; oldest overwritten beyond it). *)
val default_capacity : int

(** [recorder ?capacity ?metrics ()] — a recording sink; with [metrics]
    the standard instruments on that registry are also bumped per event. *)
val recorder : ?capacity:int -> ?metrics:Metrics.t -> unit -> sink

(** Metrics-only sink: no ring, every event metered on the registry. *)
val meter : Metrics.t -> sink

val enabled : sink -> bool

(** The audited raw entry point. *)
val emit : sink -> Event.t -> unit

val emit_index_query : sink -> int -> unit
val emit_index_batch : sink -> int -> unit
val emit_weighted_sample : sink -> int -> unit
val emit_weighted_batch : sink -> int -> unit
val emit_rng_split : sink -> string -> unit
val emit_partition : sink -> large:int -> buckets:int -> samples:int -> unit

(** [phase s name f] brackets [f ()] with [Phase_enter]/[Phase_exit]
    events (no bracket when disabled).  The exit event is emitted even
    when [f] raises ([Fun.protect]), so an exception can never leave an
    unbalanced bracket in the stream. *)
val phase : sink -> string -> (unit -> 'a) -> 'a

(** Recorded events, oldest first. *)
val events : sink -> Event.t list

val dropped : sink -> int

(** Account externally-dropped events (engine merge of per-trial rings). *)
val add_dropped : sink -> int -> unit
