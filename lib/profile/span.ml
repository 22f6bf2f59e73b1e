module Event = Lk_obs.Event

type cost = {
  events : int;
  index_queries : int;
  weighted_samples : int;
  rng_splits : int;
}

let zero =
  {
    events = 0;
    index_queries = 0;
    weighted_samples = 0;
    rng_splits = 0;
  }

let add a b =
  {
    events = a.events + b.events;
    index_queries = a.index_queries + b.index_queries;
    weighted_samples = a.weighted_samples + b.weighted_samples;
    rng_splits = a.rng_splits + b.rng_splits;
  }

let queries c = c.index_queries + c.weighted_samples

(* Bracket events never reach this function: of_events routes them to the
   stack.  Every other shape costs one event, plus its dedicated field. *)
let cost_of_event (e : Event.t) =
  let base = { zero with events = 1 } in
  match e with
  | Event.Oracle_query (Event.Index_query _) -> { base with index_queries = 1 }
  | Event.Oracle_query (Event.Index_batch k) -> { base with index_queries = k }
  | Event.Oracle_query (Event.Weighted_sample _) -> { base with weighted_samples = 1 }
  | Event.Oracle_query (Event.Weighted_batch k) -> { base with weighted_samples = k }
  | Event.Rng_split _ -> { base with rng_splits = 1 }
  | Event.Partition _ | Event.Phase_enter _ | Event.Phase_exit _
  | Event.Trial_start _ | Event.Trial_end _ ->
      base

type t = {
  name : string;
  trial : int option;
  start : int;
  stop : int;
  self : cost;
  total : cost;
  children : t list;
}

let display_name s =
  match s.trial with Some i -> Printf.sprintf "trial-%d" i | None -> s.name

(* Mutable construction frame; [fchildren] is kept reversed. *)
type frame = {
  fname : string;
  ftrial : int option;
  fstart : int;
  mutable fself : cost;
  mutable fchildren : t list;
}

let frame_kind f = match f.ftrial with Some _ -> "trial" | None -> "phase"

let close f ~stop =
  let children = List.rev f.fchildren in
  let total = List.fold_left (fun acc c -> add acc c.total) f.fself children in
  {
    name = f.fname;
    trial = f.ftrial;
    start = f.fstart;
    stop;
    self = f.fself;
    total;
    children;
  }

let of_events events =
  let issues = ref [] in
  let issue fmt = Printf.ksprintf (fun m -> issues := m :: !issues) fmt in
  let root =
    { fname = "root"; ftrial = None; fstart = 0; fself = zero; fchildren = [] }
  in
  let stack = ref [ root ] in
  let push name trial i =
    stack :=
      { fname = name; ftrial = trial; fstart = i; fself = zero; fchildren = [] }
      :: !stack
  in
  let pop ~stop =
    match !stack with
    | f :: parent :: rest ->
        parent.fchildren <- close f ~stop :: parent.fchildren;
        stack := parent :: rest
    | _ -> assert false (* the root frame is never popped here *)
  in
  List.iteri
    (fun i (ev : Event.t) ->
      match ev with
      | Event.Phase_enter name -> push name None i
      | Event.Phase_exit name -> (
          match !stack with
          | f :: _ :: _ when f.ftrial = None && f.fname = name -> pop ~stop:(i + 1)
          | f :: _ :: _ ->
              issue "event %d: phase_exit %S does not close the open %s %S (ignored)"
                i name (frame_kind f) f.fname
          | _ -> issue "event %d: phase_exit %S with no open phase (ignored)" i name)
      | Event.Trial_start t -> push "trial" (Some t) i
      | Event.Trial_end t -> (
          match !stack with
          | f :: _ :: _ when f.ftrial = Some t -> pop ~stop:(i + 1)
          | f :: _ :: _ ->
              issue "event %d: trial_end %d does not close the open %s %S (ignored)"
                i t (frame_kind f) f.fname
          | _ -> issue "event %d: trial_end %d with no open trial (ignored)" i t)
      | e ->
          let f = List.hd !stack in
          f.fself <- add f.fself (cost_of_event e))
    events;
  let stop = List.length events in
  let rec unwind () =
    match !stack with
    | [ _root ] -> ()
    | f :: _ :: _ ->
        issue "%s %S entered at event %d is never closed (closed at end of stream)"
          (frame_kind f)
          (match f.ftrial with Some i -> Printf.sprintf "trial-%d" i | None -> f.fname)
          f.fstart;
        pop ~stop;
        unwind ()
    | _ -> assert false
  in
  unwind ();
  match !stack with
  | [ r ] -> (close r ~stop, List.rev !issues)
  | _ -> assert false
