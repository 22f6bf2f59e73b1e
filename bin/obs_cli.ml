(* Shared --trace / --profile plumbing for the binaries.

   experiments, lcakp_cli and loadgen all grow the same two observability
   outputs; this module is their single implementation — one set of
   cmdliner terms, one sink-selection policy, one artifact writer — so the
   flags cannot drift apart.  The invariants every user relies on live
   here:

   - without either flag the sink is [Obs.null], so the default path pays
     one branch per emission site and stdout stays byte-identical with or
     without the flags;
   - artifacts are deterministic JSON, byte-identical across repeats; the
     profile and the trace's events are also byte-identical across --jobs
     counts (the recorded stream is merged in trial-index order by the
     engine), and a trace's header differs only in the --jobs it records. *)

module Obs = Lk_obs.Obs
module TraceDoc = Lk_obs.Trace

type t = { sink : Obs.sink; trace : string option; profile : string option }

(* [setup ~trace ~profile ()] records only when an artifact needs the
   event stream. *)
let setup ~trace ~profile () =
  let sink = if trace = None && profile = None then Obs.null else Obs.recorder () in
  { sink; trace; profile }

(* One recorded option.  The "--name=value" form reads back even when the
   value starts with '-'; a one-letter name takes "-nVALUE". *)
let opt name value =
  if String.length name = 1 then "-" ^ name ^ value else "--" ^ name ^ "=" ^ value

let int_opt name i = opt name (string_of_int i)

(* %h is exact, and cmdliner's float parser reads it back. *)
let float_opt name f = opt name (Printf.sprintf "%h" f)

(* [finish t ~label ~argv ()] writes whichever artifacts were requested.
   [argv] goes into the trace header: the arguments that re-create this
   run — its inputs and options, without the output options — which
   'trace_tool verify' runs again with its own --trace. *)
let finish t ~label ~argv () =
  (match t.trace with
  | Some path ->
      TraceDoc.save path
        (TraceDoc.make ~label ~argv ~dropped:(Obs.dropped t.sink) (Obs.events t.sink))
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
     across repeats; the events are also identical across --jobs counts.  \
     Stdout is unaffected.  \
     The file also holds the arguments that re-create the run: \
     'trace_tool verify --runner EXE FILE', with EXE this executable and \
     run from the directory the recording was made in, checks it."
  in
  Arg.(value & opt (some Cli_exit.output_path) None & info [ "trace" ] ~docv:"FILE" ~doc)

let profile_arg =
  let doc =
    "Aggregate the run's event stream into a query-complexity profile \
     (per-phase counts, per-trial quantiles; schema lca-knapsack-obs/1) \
     and write it to $(docv).  Byte-identical across repeats and --jobs \
     counts; gate a profile against a baseline with 'obs_gate'."
  in
  Arg.(value & opt (some Cli_exit.output_path) None & info [ "profile" ] ~docv:"FILE" ~doc)
