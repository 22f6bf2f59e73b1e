type sink = Sink.t

let null = Sink.null
let default_capacity = Sink.default_capacity

let recorder ?capacity ?metrics () = Sink.create ?capacity ?metrics ()
let meter registry = Sink.create ~record:false ~metrics:registry ()
let enabled = Sink.enabled
let emit = Sink.push

(* Specialized emitters for the hot path: the [Null] check happens before
   the event is even allocated, so a disabled sink costs one branch per
   oracle access and nothing else. *)

let emit_index_query s i =
  if Sink.enabled s then Sink.push s (Event.Oracle_query (Event.Index_query i))

let emit_index_batch s k =
  if Sink.enabled s then Sink.push s (Event.Oracle_query (Event.Index_batch k))

let emit_weighted_sample s i =
  if Sink.enabled s then Sink.push s (Event.Oracle_query (Event.Weighted_sample i))

let emit_weighted_batch s k =
  if Sink.enabled s then Sink.push s (Event.Oracle_query (Event.Weighted_batch k))

let emit_rng_split s label = if Sink.enabled s then Sink.push s (Event.Rng_split label)

let emit_partition s ~large ~buckets ~samples =
  if Sink.enabled s then Sink.push s (Event.Partition { large; buckets; samples })

let phase s name f =
  if not (Sink.enabled s) then f ()
  else begin
    Sink.push s (Event.Phase_enter name);
    Fun.protect ~finally:(fun () -> Sink.push s (Event.Phase_exit name)) f
  end

let events = Sink.events
let dropped = Sink.dropped
let add_dropped = Sink.add_dropped
