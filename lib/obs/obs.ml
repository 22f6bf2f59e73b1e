type sink = Null | Recording of Event.t Ring.t

let null = Null
let default_capacity = 65536
let recorder ?(capacity = default_capacity) () = Recording (Ring.create ~capacity)
let enabled = function Null -> false | Recording _ -> true
let emit s ev = match s with Null -> () | Recording r -> Ring.push r ev

(* Specialized emitters for the hot path: the [Null] check happens before
   the event is even allocated, so a disabled sink costs one branch per
   oracle access and nothing else. *)

let emit_index_query s i =
  match s with
  | Null -> ()
  | Recording r -> Ring.push r (Event.Oracle_query (Event.Index_query i))

let emit_index_batch s k =
  match s with
  | Null -> ()
  | Recording r -> Ring.push r (Event.Oracle_query (Event.Index_batch k))

let emit_weighted_sample s i =
  match s with
  | Null -> ()
  | Recording r -> Ring.push r (Event.Oracle_query (Event.Weighted_sample i))

let emit_weighted_batch s k =
  match s with
  | Null -> ()
  | Recording r -> Ring.push r (Event.Oracle_query (Event.Weighted_batch k))

let emit_rng_split s label =
  match s with Null -> () | Recording r -> Ring.push r (Event.Rng_split label)

let emit_partition s ~large ~buckets ~samples =
  match s with
  | Null -> ()
  | Recording r -> Ring.push r (Event.Partition { large; buckets; samples })

let phase s name f =
  match s with
  | Null -> f ()
  | Recording r ->
      Ring.push r (Event.Phase_enter name);
      Fun.protect ~finally:(fun () -> Ring.push r (Event.Phase_exit name)) f

let events = function Null -> [] | Recording r -> Ring.to_list r
let dropped = function Null -> 0 | Recording r -> Ring.dropped r
let add_dropped s n = match s with Null -> () | Recording r -> Ring.add_dropped r n
