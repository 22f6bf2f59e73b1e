module Rng = Lk_util.Rng

type outcome = {
  runs : int;
  pairwise_agreement : float;
  modal_agreement : float;
  distinct_outputs : int;
  accuracy_rate : float;
}

let evaluate ?jobs ~runs ~shared_seed ~fresh ~sampler ~algorithm ~accurate () =
  if runs < 2 then invalid_arg "Repro_harness.evaluate: need at least 2 runs";
  let one_run rng =
    let sample = sampler rng in
    let shared = Rng.create shared_seed in
    algorithm ~shared sample
  in
  (* Each run samples from its own index-derived stream; the shared
     randomness is re-derived from [shared_seed] inside every run, exactly
     as Definition 2.5 prescribes. *)
  let outputs =
    Lk_parallel.Engine.run ?jobs ~base:fresh ~trials:runs (fun ~index:_ ~rng -> one_run rng)
  in
  let freq = Hashtbl.create 16 in
  Array.iter
    (fun o -> Hashtbl.replace freq o (1 + Option.value ~default:0 (Hashtbl.find_opt freq o)))
    outputs;
  let n = float_of_int runs in
  let pairwise = ref 0. and modal = ref 0 in
  List.iter
    (fun (_, c) ->
      let f = float_of_int c /. n in
      pairwise := !pairwise +. (f *. f);
      if c > !modal then modal := c)
    (Lk_util.Det.sorted_bindings freq);
  let accurate_count = Array.fold_left (fun acc o -> if accurate o then acc + 1 else acc) 0 outputs in
  {
    runs;
    pairwise_agreement = !pairwise;
    modal_agreement = float_of_int !modal /. n;
    distinct_outputs = Hashtbl.length freq;
    accuracy_rate = float_of_int accurate_count /. n;
  }
