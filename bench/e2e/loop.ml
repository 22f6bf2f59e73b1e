(* The closed loop and the pieces every workload shares: one client sends
   its next request only after the previous one returned, and each
   request is timed from call to return with Lk_benchkit.Stopwatch.
   Checks, input generation and the traced decomposition run between
   requests, outside the timed intervals. *)

module Stopwatch = Lk_benchkit.Stopwatch

type config = {
  seed : int64;
  seconds : float;  (** wall-clock length of the timed phase *)
  smoke : bool;  (** tiny sizes, for the runtest rule *)
  tracer : Span.recorder option;  (** [Some] in the traced run *)
}

(* What one request reports back to the loop. *)
type step = { latency_ns : float; failed : bool }

type outcome = {
  latencies_ns : float array;  (** one per request, in request order *)
  ops_per_request : int;  (** answered queries (serving) or completed counts *)
  failed : int;  (** requests whose checks failed *)
  setup_times_s : float array;  (** each set-up, in order *)
  rss_inputs_mb : float;  (** resident set before the first set-up: the benchmark's inputs *)
  rss_peak_mb : float;  (** peak resident set over a fixed prefix of the run *)
}

(* A field of /proc/self/status ("VmHWM", "VmRSS"), in MiB. *)
let status_mb field =
  let ic = open_in "/proc/self/status" in
  let prefix = field ^ ":" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix line ->
        Scanf.sscanf line "%_s@: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith ("no " ^ field ^ " line in /proc/self/status")
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Outside --smoke a run lasts until it has both filled [seconds] and sent
   this many requests, so that at least 10 samples lie beyond its p99. *)
let min_requests = 1000

(* Set-ups per run: one before the timed phase, then one at the start of
   each later ninth of it.  A set-up lasts well under a second, so several
   back to back would all fall in whatever episode of outside load the
   machine is in.  Spread over the run, some of them miss the episodes,
   and main.ml reports the median of the fastest third, as it keeps only
   the quietest request slices. *)
let set_up_reps = 9

(* [run cfg ~ops_per_request ~setup step] sets up, then calls
   [step state 0], [step state 1], ... until the timed phase has lasted
   [cfg.seconds] and (outside --smoke) [min_requests] were sent, replacing
   [state] by a fresh [setup ()] at each later ninth of [cfg.seconds].
   Set-ups are timed, requests time themselves. *)
let run cfg ~ops_per_request ~setup step =
  let setup_times = Array.make set_up_reps 0. in
  let state = ref None in
  (* The memory metric is the peak over input generation, the first
     set-up and the requests up to the [min_requests]th or up to the second
     set-up, whichever comes first.  A count of requests rather than a
     time, because the peak grows with the requests served and a run slowed
     by outside load serves fewer in the same time; and before the second
     set-up, because later set-ups replace a state the runtime may not hand
     back to the system, which is the benchmark's doing, not the
     program's. *)
  let rss_mb = ref nan in
  let read_rss () = if Float.is_nan !rss_mb then rss_mb := status_mb "VmHWM" in
  (* The replaced state and each set-up's garbage are collected outside
     the timings, so that a set-up neither holds two states at once nor
     leaves work for the next requests. *)
  let set_up k =
    if k = 1 then read_rss ();
    state := None;
    Gc.full_major ();
    let v, ns = Stopwatch.time setup in
    setup_times.(k) <- ns /. 1e9;
    state := Some v;
    Gc.full_major ()
  in
  Gc.full_major ();
  let rss_inputs_mb = status_mb "VmRSS" in
  set_up 0;
  let latencies = Stats.Buf.create () in
  let failed = ref 0 in
  let floor = if cfg.smoke then 1 else min_requests in
  let clock = Stopwatch.start () in
  let limit_ns = cfg.seconds *. 1e9 in
  let reps = ref 1 and i = ref 0 in
  while !i < floor || Stopwatch.elapsed_ns clock < limit_ns do
    if
      !reps < set_up_reps
      && float_of_int !reps *. limit_ns <= float_of_int set_up_reps *. Stopwatch.elapsed_ns clock
    then begin
      set_up !reps;
      incr reps
    end;
    let s = step (Option.get !state) !i in
    Stats.Buf.push latencies s.latency_ns;
    if s.failed then incr failed;
    incr i;
    if !i = min_requests then read_rss ()
  done;
  (* a phase too short to reach every ninth sets up the rest at its end *)
  while !reps < set_up_reps do
    set_up !reps;
    incr reps
  done;
  {
    latencies_ns = Stats.Buf.to_array latencies;
    ops_per_request;
    failed = !failed;
    setup_times_s = setup_times;
    rss_inputs_mb;
    rss_peak_mb = !rss_mb;
  }
