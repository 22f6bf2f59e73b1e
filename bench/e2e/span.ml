(* Spans of the traced run.

   A request's root span carries the request's own timed latency; its
   children are re-timed calls of the same public functions on the same
   inputs, made after the request returned.  Each span names its parent by
   id, and a span's self time is its duration minus its direct children's.

   The recorder turns every finished request into one sample per declared
   span name (total and self time, 0 when the name did not occur), sums
   the counts attached to spans, and keeps the spans themselves only when
   they are to be written out at exit. *)

type t = {
  request : int;
  id : int;
  parent : int;  (** [-1] for the request's root *)
  name : string;
  dur_ns : float;
  counts : (string * float) list;
}

let self_ns spans s =
  List.fold_left
    (fun acc c -> if c.request = s.request && c.parent = s.id then acc -. c.dur_ns else acc)
    s.dur_ns spans

let to_json ~workload s =
  Lk_benchkit.Json.(
    Obj
      [
        ("workload", Str workload);
        ("request", Num (float_of_int s.request));
        ("id", Num (float_of_int s.id));
        ("parent", Num (float_of_int s.parent));
        ("name", Str s.name);
        ("dur_ns", Num s.dur_ns);
        ("counts", Obj (List.map (fun (k, v) -> (k, Num v)) s.counts));
      ])

type recorder = {
  workload : string;
  names : string list;
  keep : bool;
  mutable kept : t list;  (** newest first *)
  mutable current : t list;  (** the open request's spans, newest first *)
  mutable request : int;
  mutable next_id : int;
  totals : (string, Stats.Buf.t) Hashtbl.t;
  selfs : (string, Stats.Buf.t) Hashtbl.t;
  count_sums : (string * string, float) Hashtbl.t;
}

let recorder ~workload ~names ~keep =
  let table () =
    let h = Hashtbl.create 16 in
    List.iter (fun n -> Hashtbl.replace h n (Stats.Buf.create ())) names;
    h
  in
  {
    workload;
    names;
    keep;
    kept = [];
    current = [];
    request = 0;
    next_id = 0;
    totals = table ();
    selfs = table ();
    count_sums = Hashtbl.create 16;
  }

let check_name r name =
  if not (List.mem name r.names) then invalid_arg ("Span: undeclared span name " ^ name)

(* [add r ?parent ?counts name dur_ns] records a span of the open request
   and returns its id. *)
let add r ?(parent = -1) ?(counts = []) name dur_ns =
  check_name r name;
  let s = { request = r.request; id = r.next_id; parent; name; dur_ns; counts } in
  r.next_id <- r.next_id + 1;
  r.current <- s :: r.current;
  s.id

let finish_request r =
  let spans = r.current in
  List.iter
    (fun name ->
      let mine = List.filter (fun s -> s.name = name) spans in
      let sum f = List.fold_left (fun acc s -> acc +. f s) 0. mine in
      Stats.Buf.push (Hashtbl.find r.totals name) (sum (fun s -> s.dur_ns));
      Stats.Buf.push (Hashtbl.find r.selfs name) (sum (self_ns spans)))
    r.names;
  List.iter
    (fun s ->
      List.iter
        (fun (k, v) ->
          let key = (s.name, k) in
          Hashtbl.replace r.count_sums key
            (v +. Option.value ~default:0. (Hashtbl.find_opt r.count_sums key)))
        s.counts)
    spans;
  if r.keep then r.kept <- spans @ r.kept;
  r.current <- [];
  r.request <- r.request + 1

let requests r = r.request

let median_of table name =
  let buf = Hashtbl.find table name in
  if Stats.Buf.length buf = 0 then 0.
  else Stats.median_sorted (Stats.sorted (Stats.Buf.to_array buf))

(* Median over requests of the per-request total time under [name]. *)
let total_median r name =
  check_name r name;
  median_of r.totals name

(* Median over requests of the per-request self time under [name]. *)
let self_median r name =
  check_name r name;
  median_of r.selfs name

(* Sum over every request of [name]'s total time. *)
let total_sum r name =
  check_name r name;
  Stats.Buf.sum (Hashtbl.find r.totals name)

(* Sum of the count [key] attached to spans named [name]. *)
let count_sum r name key =
  check_name r name;
  Option.value ~default:0. (Hashtbl.find_opt r.count_sums (name, key))

(* Ratio of two sums, 0 when the denominator is (e.g. no preparations). *)
let ratio num den = if den = 0. then 0. else num /. den

(* Write the kept spans as JSON lines, oldest first. *)
let write r path =
  let oc = open_out path in
  List.iter
    (fun s -> output_string oc (Line.to_string (to_json ~workload:r.workload s) ^ "\n"))
    (List.rev r.kept);
  close_out oc
