(** Exporters: the event stream of a trace rendered for external viewers.
    All Chrome-trace-event (Perfetto) JSON and folded-flamegraph text in
    the tree is assembled here, from the span tree ({!Span}) and the
    aggregation rows ({!Profile}), so binaries only ever hand over a
    trace. *)

(** [perfetto trace] — Chrome trace-event JSON
    ([{"traceEvents": [...]}]) loadable in Perfetto / chrome://tracing.
    The timebase is synthetic and deterministic: one tick per recorded
    event (there are no clocks in a deterministic trace).  Spans become
    complete (["ph":"X"]) duration events in preorder carrying self/total
    query costs in [args]; an ["oracle.queries"] counter track, sampled at
    every span boundary, plots the oracle queries charged so far.
    Unbalanced streams still render (residual spans are closed at end of
    stream). *)
val perfetto : Lk_obs.Trace.t -> Lk_benchkit.Json.t

(** [folded trace] — folded-stack flamegraph text (one
    ["path;to;span <value>"] line per aggregation row, sorted by path),
    keyed by {e self} query cost, ready for [flamegraph.pl] / speedscope;
    zero-cost rows are omitted, matching the flamegraph convention that
    frames are sized by their weight. *)
val folded : Lk_obs.Trace.t -> string

(** [write_text path contents] — write verbatim (binary mode, so output
    is byte-identical across platforms). *)
val write_text : string -> string -> unit
