(* Shared --trace / --profile plumbing for the binaries.

   experiments, lcakp_cli and loadgen all grow the same two observability
   outputs; this module is their single implementation — one set of
   cmdliner terms, one sink-selection policy, one artifact writer — so the
   flags cannot drift apart.  The invariants every user relies on live
   here:

   - without either flag the sink is [Obs.null], so the default path pays
     one branch per emission site and stdout stays byte-identical with or
     without the flags;
   - artifacts are deterministic JSON — byte-identical across repeats and
     across --jobs counts (the recorded stream is merged in trial-index
     order by the engine). *)

module Obs = Lk_obs.Obs
module TraceDoc = Lk_obs.Trace

type t = { sink : Obs.sink; trace : string option; profile : string option }

(* [setup ~trace ~profile ()] records only when an artifact needs the
   event stream. *)
let setup ~trace ~profile () =
  let sink = if trace = None && profile = None then Obs.null else Obs.recorder () in
  { sink; trace; profile }

(* [finish t ~label ~meta ()] writes whichever artifacts were requested.
   [meta] goes into the trace header (everything a replayer needs to re-run
   the exact invocation). *)
let finish t ~label ~meta () =
  (match t.trace with
  | Some path ->
      TraceDoc.save path
        (TraceDoc.make ~label ~meta ~dropped:(Obs.dropped t.sink) (Obs.events t.sink))
  | None -> ());
  match t.profile with
  | Some path ->
      (* The profile is a pure function of the (jobs-invariant) event
         stream, so this file is byte-identical for every --jobs count —
         the property bin/obs_gate leans on. *)
      Lk_profile.Profile.save path
        (Lk_profile.Profile.of_events ~label ~dropped:(Obs.dropped t.sink)
           (Obs.events t.sink))
  | None -> ()

open Cmdliner

let trace_arg =
  let doc =
    "Record the run's trace-event stream (oracle queries, \
     phases, trial markers) to $(docv) — deterministic JSON, byte-identical \
     across repeats and across --jobs counts.  Stdout is unaffected.  \
     Verify a recording with 'trace_tool verify'."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let profile_arg =
  let doc =
    "Aggregate the run's event stream into a query-complexity profile \
     (per-phase counts, per-trial quantiles; schema lca-knapsack-obs/1) \
     and write it to $(docv).  Byte-identical across repeats and --jobs \
     counts; gate a profile against a baseline with 'obs_gate'."
  in
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)
