(** The query-serving tier: prepared run states, one per distinct instance
    digest, fed by deterministic {!Trace}s and answered through the
    {!Batch} path.

    The server is the only owner of prepared states.  A digest's state is
    prepared the first time a trace touches it and kept for the server's
    lifetime, so identical instances share one preparation and a later
    serve call over the same instances prepares nothing.  The instance
    universe is fixed at {!create}, so at most one state per instance is
    ever resident.

    {2 Determinism argument}

    Each serve call processes the trace in windows.  Within a window:

    + {b Resolution} (serial, trace order): every state lookup and every
      preparation happens here — the state table is never touched off
      this phase, so hit counts and preparation charges are pure functions
      of the trace prefix.
    + {b Answering} (parallel): one {!Lk_parallel.Engine} trial per
      distinct instance in the window, against read-only prepared states.
      Trials charge private counters and record into private sinks; the
      engine merges both in trial-index order.

    Preparation streams are derived as [Rng.of_path seed ["serve-prepare";
    digest]] — a function of (seed, digest) only — so a state does not
    depend on which instance or window touched its digest first.
    Responses, merged counters, metrics, and traces are therefore
    byte-identical at every [jobs]; the [@serve-smoke] alias gates exactly
    that. *)

type t

(** Lookup accounting of one serve call.  [hits] counts window lookups
    served by a resident state, [misses] counts first-touch preparations
    (equal to {!report.prepares}), and [evictions] is always 0: states are
    never evicted.  The field keeps its shape for the benchmark that reads
    it. *)
type pool_stats = { hits : int; misses : int; evictions : int }

type report = {
  responses : bool array;  (** answer per trace entry, in trace order *)
  counters : Lk_oracle.Counters.t;
      (** merged oracle bill of this call (preparations + answers) *)
  pool : pool_stats;  (** lookups during this call *)
  prepares : int;  (** states prepared during this call (first touches) *)
  memo_hits : int;  (** always 0; kept for the benchmark that reads it *)
  prepare_ns : float;
      (** wall-clock ns spent preparing first-touched states this call —
          the cold-preparation latency that resident states hide from
          answer traffic.  A {e measurement} (via
          {!Lk_benchkit.Stopwatch}), so unlike every other field it is not
          deterministic: report it on stderr or in bench files only, never
          on a byte-compared output channel. *)
}

(** [create ?window ?metrics ?sampling ~params ~seed instances] — a server
    over a fixed instance universe.  [window] (default 4096) is the
    resolution/answer batch size; [metrics] registers [serve.*]
    instruments on the given registry. *)
val create :
  ?window:int ->
  ?metrics:Lk_obs.Metrics.t ->
  ?sampling:Lk_oracle.Access.sampling ->
  params:Lk_lcakp.Params.t ->
  seed:int64 ->
  Lk_knapsack.Instance.t array ->
  t

(** [serve ?jobs ?sink t trace] replays [trace] and returns the answers
    plus this call's accounting.  Byte-identical output for every [jobs]
    value. *)
val serve : ?jobs:int -> ?sink:Lk_obs.Obs.sink -> t -> Trace.t -> report
