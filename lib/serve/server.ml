module Access = Lk_oracle.Access
module Counters = Lk_oracle.Counters
module Engine = Lk_parallel.Engine
module Instance = Lk_knapsack.Instance
module Lca_kp = Lk_lcakp.Lca_kp
module Metrics = Lk_obs.Metrics
module Obs = Lk_obs.Obs
module Rng = Lk_util.Rng

type instruments = {
  m_hits : Metrics.counter;
  m_prepares : Metrics.counter;
  m_answers : Metrics.counter;
  m_size : Metrics.gauge;
}

type t = {
  seed : int64;
  window : int;
  accesses : Access.t array;
  digests : string array;
  algos : Lca_kp.t array;
  states : (string, Lca_kp.state) Hashtbl.t;  (* by digest; never evicted *)
  instruments : instruments option;
}

type pool_stats = { hits : int; misses : int; evictions : int }

type report = {
  responses : bool array;
  counters : Counters.t;
  pool : pool_stats;
  prepares : int;
  memo_hits : int;
  prepare_ns : float;
}

let default_window = 4096

let instruments_of registry =
  {
    m_hits = Metrics.counter registry "serve.pool.hits";
    m_prepares = Metrics.counter registry "serve.prepares";
    m_answers = Metrics.counter registry "serve.answers";
    m_size = Metrics.gauge registry "serve.pool.size";
  }

let create ?(window = default_window) ?metrics ?sampling ~params ~seed instances =
  if window < 1 then invalid_arg "Server.create: window must be >= 1";
  if Array.length instances = 0 then invalid_arg "Server.create: no instances";
  let accesses = Array.map (fun inst -> Access.of_instance ?sampling inst) instances in
  {
    seed;
    window;
    accesses;
    digests = Array.map Instance.digest instances;
    (* One algorithm per instance: it owns the preparation arena, whose
       tie-salt memo the instance's answers read.  Per-window accounting
       views are grafted on via [Lca_kp.with_access], which shares it. *)
    algos = Array.map (fun access -> Lca_kp.create params access ~seed) accesses;
    states = Hashtbl.create (Array.length instances);
    instruments = Option.map instruments_of metrics;
  }

(* The fresh stream a digest's preparation consumes.  Derived from (seed,
   digest) only, so a state does not depend on which instance or window
   touched its digest first. *)
let prepare_fresh t digest = Rng.of_path t.seed [ "serve-prepare"; digest ]

type group = {
  g_instance : int;
  g_positions : int array;  (* trace positions, in trace order *)
}

(* Group a window's entries by instance in first-appearance order — a pure
   function of the trace, independent of jobs. *)
let group_window entries ~lo ~hi ~n_instances =
  let slot = Array.make n_instances (-1) in
  let groups = ref [] in
  let n_groups = ref 0 in
  let buckets = Array.make n_instances [] in
  for p = lo to hi - 1 do
    let i = entries.(p).Trace.instance in
    if slot.(i) < 0 then begin
      slot.(i) <- !n_groups;
      incr n_groups;
      groups := i :: !groups
    end;
    buckets.(i) <- p :: buckets.(i)
  done;
  let order = Array.of_list (List.rev !groups) in
  Array.map
    (fun i ->
      {
        g_instance = i;
        g_positions = Array.of_list (List.rev buckets.(i));
      })
    order

let view t ~instance ~counters ~sink =
  Lca_kp.with_access t.algos.(instance)
    (Access.with_sink (Access.with_counters t.accesses.(instance) counters) sink)

let serve ?jobs ?(sink = Obs.null) (t : t) trace =
  let entries = Trace.entries trace in
  let len = Array.length entries in
  let responses = Array.make len false in
  let master = Counters.create () in
  let hits = ref 0 and prepares = ref 0 in
  (* Wall-clock spent on first-touch preparations this call.  Observational
     only (Stopwatch discipline): it is returned for stderr/bench-file
     reporting and must never reach a deterministic output channel. *)
  let prepare_ns = ref 0. in
  let resolve g =
    let digest = t.digests.(g.g_instance) in
    match Hashtbl.find_opt t.states digest with
    | Some state ->
        incr hits;
        state
    | None ->
        let algo = view t ~instance:g.g_instance ~counters:master ~sink in
        let fresh = prepare_fresh t digest in
        let state, ns = Lk_benchkit.Stopwatch.time (fun () -> Lca_kp.prepare algo ~fresh) in
        prepare_ns := !prepare_ns +. ns;
        incr prepares;
        Hashtbl.add t.states digest state;
        state
  in
  let n_windows = (len + t.window - 1) / t.window in
  for w = 0 to n_windows - 1 do
    let lo = w * t.window and hi = min len ((w + 1) * t.window) in
    let groups =
      group_window entries ~lo ~hi ~n_instances:(Array.length t.accesses)
    in
    (* Resolution phase — strictly serial: every lookup and every
       preparation happens here, over the window's instances in
       first-appearance order, so hit counts and preparation charges
       cannot depend on the jobs count. *)
    let states = Obs.phase sink "pool-resolve" (fun () -> Array.map resolve groups) in
    (* Answer phase — one engine trial per group, against read-only
       prepared states.  Each trial charges a private counter set and
       records into a private sink; the engine merges both in group-index
       order, so responses, counters, and the trace are jobs-invariant. *)
    let n_groups = Array.length groups in
    let per_trial = Array.init n_groups (fun _ -> Counters.create ()) in
    let base = Rng.of_path t.seed [ "serve-window"; string_of_int w ] in
    let answers =
      Obs.phase sink "batch-answer" (fun () ->
          Engine.run_traced ?jobs ~sink ~base ~trials:n_groups
            (fun ~index ~rng:_ ~sink ->
              let g = groups.(index) in
              let algo =
                view t ~instance:g.g_instance ~counters:per_trial.(index) ~sink
              in
              let idx = Array.map (fun p -> entries.(p).Trace.item) g.g_positions in
              Batch.answer algo states.(index) idx))
    in
    Array.iter (fun c -> Counters.add ~into:master c) per_trial;
    Array.iteri
      (fun gi ans ->
        Array.iteri (fun j p -> responses.(p) <- ans.(j)) groups.(gi).g_positions)
      answers
  done;
  (match t.instruments with
  | None -> ()
  | Some m ->
      Metrics.incr ~by:!hits m.m_hits;
      Metrics.incr ~by:!prepares m.m_prepares;
      Metrics.incr ~by:len m.m_answers;
      Metrics.set m.m_size (float_of_int (Hashtbl.length t.states)));
  {
    responses;
    counters = master;
    pool = { hits = !hits; misses = !prepares; evictions = 0 };
    prepares = !prepares;
    memo_hits = 0;
    prepare_ns = !prepare_ns;
  }
