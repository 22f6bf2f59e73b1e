module Rng = Lk_util.Rng

(* The determinism contract, in three parts:
   1. trial [i] computes with [Rng.split_at base i] — its stream depends
      only on [base] and [i], never on which domain runs it or when;
   2. each result is written to slot [i] of a pre-sized array — no two
      domains touch the same slot, and the merge is the identity on
      index order;
   3. the only cross-domain mutable state is the chunk dispenser (an
      [Atomic] next-chunk cursor), which affects scheduling but not values.
   Hence output is a function of (base, trials, f) alone: bitwise identical
   for every [jobs], including the serial [jobs = 1] path.

   Failures obey the same rule: the exception raised is the one of the
   lowest failing index, at every [jobs].  Each chunk records its own first
   failure and stops there; after every domain is joined, the failures are
   scanned in chunk order. *)
let run ?(jobs = 1) ~base ~trials f =
  if trials < 0 then invalid_arg "Engine.run: trials must be non-negative";
  if jobs < 1 then invalid_arg "Engine.run: jobs must be >= 1";
  let jobs = min jobs (max 1 trials) in
  let trial i = f ~index:i ~rng:(Rng.split_at base i) in
  if jobs = 1 then
    (* Serial path: same per-trial streams, no domain machinery. *)
    Array.init trials trial
  else begin
    let ranges = Array.of_list (Chunk.ranges ~trials ~chunk:(Chunk.size ~trials ~jobs)) in
    let chunks = Array.length ranges in
    let results = Array.make trials None in
    let failures = Array.make chunks None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let c = Atomic.fetch_and_add next 1 in
        if c < chunks then begin
          let start, stop = ranges.(c) in
          (try
             for i = start to stop - 1 do
               results.(i) <- Some (trial i)
             done
           with e -> failures.(c) <- Some (e, Printexc.get_raw_backtrace ()));
          loop ()
        end
      in
      loop ()
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    Array.iter
      (function Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
      failures;
    Array.map
      (function Some v -> v | None -> assert false (* every slot filled *))
      results
  end

module Obs = Lk_obs.Obs

(* Tracing under parallelism: rings are single-owner, so each trial
   records into a private sink, and the per-trial streams are stitched
   into [sink] at the barrier in trial-index order.  The merged stream is
   a function of (base, trials, f) alone — the same for every [jobs] —
   and each trial's events arrive bracketed by [Trial_start]/[Trial_end]
   with an [Rng_split] marker naming the split index.  When [sink] is
   disabled the trials get {!Obs.null} and this is exactly {!run}. *)
let run_traced ?jobs ~sink ~base ~trials f =
  if not (Obs.enabled sink) then
    run ?jobs ~base ~trials (fun ~index ~rng -> f ~index ~rng ~sink:Obs.null)
  else begin
    if trials < 0 then invalid_arg "Engine.run_traced: trials must be non-negative";
    (* The parent's ring is written only by the merge below, never
       concurrently. *)
    let per_trial = Array.init trials (fun _ -> Obs.recorder ()) in
    let results =
      run ?jobs ~base ~trials (fun ~index ~rng ->
          f ~index ~rng ~sink:per_trial.(index))
    in
    Array.iteri
      (fun i s ->
        Obs.emit sink (Lk_obs.Event.Trial_start i);
        (* Close the trial bracket even if the merge raises midway: an
           unbalanced stream would poison every consumer. *)
        Fun.protect
          ~finally:(fun () -> Obs.emit sink (Lk_obs.Event.Trial_end i))
          (fun () ->
            Obs.emit sink (Lk_obs.Event.Rng_split (Printf.sprintf "trial-%d" i));
            List.iter (Obs.emit sink) (Obs.events s);
            Obs.add_dropped sink (Obs.dropped s)))
      per_trial;
    results
  end
