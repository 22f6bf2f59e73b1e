(** Empirical evaluation of reproducibility (Definition 2.5).

    Runs an algorithm many times with the *same* shared randomness but
    *fresh* samples, and estimates:
    - the pairwise agreement probability
      [Pr(A(s1; r) = A(s2; r))] (the paper's ρ-reproducibility, estimated
      over the run collection as [Σ_x freq(x)²]);
    - the modal agreement (fraction of runs returning the most common
      output);
    - an accuracy rate against a caller-supplied predicate. *)

type outcome = {
  runs : int;
  pairwise_agreement : float;
  modal_agreement : float;
  distinct_outputs : int;
  accuracy_rate : float;
}

(** [evaluate ?jobs ~runs ~shared_seed ~fresh ~sampler ~algorithm ~accurate ()]
    draws a fresh sample with [sampler] per run, executes
    [algorithm ~shared sample] with a shared generator re-derived from
    [shared_seed] each time, and scores outputs with [accurate].  The runs
    fan out on {!Lk_parallel.Engine} over [jobs] domains (default 1) with
    index-derived fresh streams ([Rng.split_at fresh i]), so the outcome
    is bitwise identical for every [jobs] value. *)
val evaluate :
  ?jobs:int ->
  runs:int ->
  shared_seed:int64 ->
  fresh:Lk_util.Rng.t ->
  sampler:(Lk_util.Rng.t -> int array) ->
  algorithm:(shared:Lk_util.Rng.t -> int array -> int) ->
  accurate:(int -> bool) ->
  unit ->
  outcome
