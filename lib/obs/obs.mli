(** Observability façade — the {b single entry point} for trace-event
    emission.  A sink is either disabled ({!null}) or a recorder owning a
    {!Ring}; the type is abstract, so no code outside [lib/obs] can reach
    a recorder's ring, and every event in the tree provably flows through
    {!emit} (or one of the specialized [emit_*] wrappers below, which are
    front-ends to it): determinism of the event stream is auditable at
    this one seam.

    A disabled sink costs one branch per instrumentation site — the
    specialized emitters test for it before allocating the event — so
    instrumented hot paths are zero-cost when tracing is off. *)

type sink

(** The disabled sink: nothing is recorded. *)
val null : sink

(** Default ring capacity (65536 events; oldest overwritten beyond it). *)
val default_capacity : int

(** [recorder ?capacity ()] — a recording sink over a fresh ring of
    [capacity] (default {!default_capacity}) events.  Overwrites beyond
    it are counted in {!dropped}. *)
val recorder : ?capacity:int -> unit -> sink

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

(** Recorded events, oldest first ([[]] for {!null}). *)
val events : sink -> Event.t list

(** Ring overwrites so far, plus any {!add_dropped} (0 for {!null}). *)
val dropped : sink -> int

(** Account externally-dropped events (engine merge of per-trial rings). *)
val add_dropped : sink -> int -> unit
