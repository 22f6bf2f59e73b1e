(* Shared --trace / --metrics / --profile plumbing for the binaries.

   experiments, lcakp_cli and loadgen all grow the same three observability
   outputs; this module is their single implementation — one set of
   cmdliner terms, one sink-selection policy, one artifact writer — so the
   flags cannot drift apart.  The invariants every user relies on live
   here:

   - without any of the three flags the sink is [Obs.null], so the default
     path pays one branch per emission site and stdout stays byte-identical
     with or without the flags;
   - --metrics alone meters on a registry without recording (no ring
     overhead); --trace/--profile record, and meter too when --metrics is
     also given;
   - artifacts are deterministic JSON/text — byte-identical across repeats
     and across --jobs counts (the recorded stream is merged in trial-index
     order by the engine). *)

module Obs = Lk_obs.Obs
module Metrics = Lk_obs.Metrics
module TraceDoc = Lk_obs.Trace

type t = {
  sink : Obs.sink;
  registry : Metrics.t option;
  trace : string option;
  metrics : string option;
  profile : string option;
}

(* [setup ?registry ~trace ~metrics ~profile ()] picks the cheapest sink
   that serves the requested artifacts.  [registry] lets a caller pass a
   registry it also hands elsewhere (loadgen registers the server's
   [serve.*] instruments on it); one is created on demand when --metrics
   is given without one. *)
let setup ?registry ~trace ~metrics ~profile () =
  let registry =
    match (metrics, registry) with
    | None, _ -> None
    | Some _, Some r -> Some r
    | Some _, None -> Some (Metrics.create ())
  in
  let sink =
    match (trace, profile, registry) with
    | None, None, None -> Obs.null
    | None, None, Some r -> Obs.meter r
    | _ -> Obs.recorder ?metrics:registry ()
  in
  { sink; registry; trace; metrics; profile }

type metrics_format = Metrics_json | Metrics_openmetrics

(* [finish t ~label ~meta ()] writes whichever artifacts were requested.
   [meta] goes into the trace header (everything a replayer needs to re-run
   the exact invocation); [metrics_format] picks JSON (experiments,
   loadgen) or OpenMetrics text exposition (lcakp_cli). *)
let finish ?(metrics_format = Metrics_json) t ~label ~meta () =
  (match t.trace with
  | Some path ->
      TraceDoc.save path
        (TraceDoc.make ~label ~meta ~dropped:(Obs.dropped t.sink) (Obs.events t.sink))
  | None -> ());
  (match t.profile with
  | Some path ->
      (* The profile is a pure function of the (jobs-invariant) event
         stream, so this file is byte-identical for every --jobs count —
         the property bin/obs_gate leans on. *)
      Lk_profile.Profile.save path
        (Lk_profile.Profile.of_events ~label ~dropped:(Obs.dropped t.sink)
           (Obs.events t.sink))
  | None -> ());
  match (t.metrics, t.registry) with
  | Some path, Some r -> (
      Metrics.set (Metrics.gauge r "obs.dropped") (float_of_int (Obs.dropped t.sink));
      let snapshot = Metrics.snapshot r in
      match metrics_format with
      | Metrics_json -> Lk_benchkit.Json.write_file path (Metrics.to_json snapshot)
      | Metrics_openmetrics ->
          Lk_profile.Export.write_text path (Lk_profile.Export.openmetrics snapshot))
  | _ -> ()

open Cmdliner

let trace_arg =
  let doc =
    "Record the run's trace-event stream (oracle queries, \
     phases, trial markers) to $(docv) — deterministic JSON, byte-identical \
     across repeats and across --jobs counts.  Stdout is unaffected.  \
     Verify a recording with 'trace_tool verify'."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Export a metrics snapshot (named counters, gauges, log-scaled \
     histograms over the same event stream) to $(docv).  Stdout is \
     unaffected."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let profile_arg =
  let doc =
    "Aggregate the run's event stream into a query-complexity profile \
     (per-phase counts, per-trial quantiles; schema lca-knapsack-obs/1) \
     and write it to $(docv).  Byte-identical across repeats and --jobs \
     counts; gate a profile against a baseline with 'obs_gate'."
  in
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)
