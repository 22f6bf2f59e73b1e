let default_capacity = 65536

type meters = {
  events : Metrics.counter;
  index_queries : Metrics.counter;
  weighted_samples : Metrics.counter;
  rng_splits : Metrics.counter;
  phases : Metrics.counter;
  trials : Metrics.counter;
  batch_size : Metrics.histogram;
  touched_index : Metrics.histogram;
}

type t =
  | Null
  | Active of { ring : Event.t Ring.t option; meters : meters option }

let null = Null

let meters_of registry =
  {
    events = Metrics.counter registry "obs.events";
    index_queries = Metrics.counter registry "oracle.index_queries";
    weighted_samples = Metrics.counter registry "oracle.weighted_samples";
    rng_splits = Metrics.counter registry "rng.splits";
    phases = Metrics.counter registry "phase.enters";
    trials = Metrics.counter registry "trials.run";
    batch_size = Metrics.histogram registry "oracle.batch_size";
    touched_index = Metrics.histogram registry "oracle.touched_index";
  }

let create ?(capacity = default_capacity) ?metrics ?(record = true) () =
  let ring = if record then Some (Ring.create ~capacity) else None in
  let meters = Option.map meters_of metrics in
  match (ring, meters) with
  | None, None -> Null
  | _ -> Active { ring; meters }

let enabled = function Null -> false | Active _ -> true

let bump m (ev : Event.t) =
  Metrics.incr m.events;
  match ev with
  | Event.Oracle_query (Event.Index_query i) ->
      Metrics.incr m.index_queries;
      Metrics.observe m.touched_index (float_of_int i)
  | Event.Oracle_query (Event.Index_batch k) ->
      Metrics.incr ~by:k m.index_queries;
      Metrics.observe m.batch_size (float_of_int k)
  | Event.Oracle_query (Event.Weighted_sample i) ->
      Metrics.incr m.weighted_samples;
      Metrics.observe m.touched_index (float_of_int i)
  | Event.Oracle_query (Event.Weighted_batch k) ->
      Metrics.incr ~by:k m.weighted_samples;
      Metrics.observe m.batch_size (float_of_int k)
  | Event.Rng_split _ -> Metrics.incr m.rng_splits
  | Event.Phase_enter _ -> Metrics.incr m.phases
  | Event.Trial_start _ -> Metrics.incr m.trials
  | Event.Phase_exit _ | Event.Trial_end _ | Event.Partition _ -> ()

let push t ev =
  match t with
  | Null -> ()
  | Active a ->
      (match a.meters with Some m -> bump m ev | None -> ());
      (match a.ring with Some r -> Ring.push r ev | None -> ())

let events = function
  | Null | Active { ring = None; _ } -> []
  | Active { ring = Some r; _ } -> Ring.to_list r

let dropped = function
  | Null | Active { ring = None; _ } -> 0
  | Active { ring = Some r; _ } -> Ring.dropped r

let add_dropped t n =
  match t with
  | Null | Active { ring = None; _ } -> ()
  | Active { ring = Some r; _ } -> Ring.add_dropped r n
