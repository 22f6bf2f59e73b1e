module Access = Lk_oracle.Access
module Obs = Lk_obs.Obs

type state = { tilde : Tilde.t; decision : Convert_greedy.decision }

type t = {
  params : Params.t;
  access : Access.t;
  seed : int64;
  arena : Prep_arena.t;  (* preparation workspace, shared by [with_access] views *)
}

let create params access ~seed = { params; access; seed; arena = Prep_arena.create () }

let params t = t.params
let access t = t.access

(* The record copy shares [arena], so a view charging through per-window
   counters keeps the instance's tie-salt memo warm. *)
let with_access t access = { t with access }

let run t ~fresh =
  let sink = Access.sink t.access in
  let tilde =
    Obs.phase sink "tilde-build" (fun () ->
        Tilde.build ~arena:t.arena t.params t.access ~seed:t.seed ~fresh)
  in
  Obs.emit_partition sink
    ~large:(Array.length tilde.Tilde.large_indices)
    ~buckets:(Eps.length tilde.Tilde.eps)
    ~samples:tilde.Tilde.samples_used;
  let decision =
    Obs.phase sink "convert-greedy" (fun () -> Convert_greedy.run t.params tilde)
  in
  { tilde; decision }

let prepare = run

(* The arena's salt memo as it currently stands (no growth): answers index
   into it guarded by length, so an undersized memo only means a recompute. *)
let arena_salts t = Prep_arena.salts t.arena 0

let[@hot] answer t state i =
  let item = Access.query t.access i in
  Mapping_greedy.member ~salt_cache:(arena_salts t) t.params ~seed:t.seed state.decision
    item ~index:i

(* Batched answering: the oracle bill equals a fold of [answer] over [idx]
   (k index queries), but the reveals go through [Access.query_many] — one
   bulk counter charge and a single Index_batch trace event.  The member
   rule itself is a pure function of (params, seed, decision, item, index),
   so the answers are byte-identical to the singleton path. *)
let[@hot] answer_many t state idx =
  let items = Access.query_many t.access idx in
  let salt_cache = arena_salts t in
  let out = Array.make (Array.length idx) false in
  for j = 0 to Array.length idx - 1 do
    Array.unsafe_set out j
      (Mapping_greedy.member ~salt_cache t.params ~seed:t.seed state.decision
         (Array.unsafe_get items j)
         ~index:(Array.unsafe_get idx j))
  done;
  out

let query t ~fresh i = answer t (run t ~fresh) i

let induced_solution t state =
  Mapping_greedy.solution t.params ~seed:t.seed (Access.normalized t.access) state.decision

let samples_per_query _t state = state.tilde.Tilde.samples_used
