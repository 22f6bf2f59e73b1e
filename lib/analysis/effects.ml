type effect_class =
  | Oracle_probe
  | Rng_consume
  | Clock_read
  | Domain_spawn
  | Mutation
  | Io

let all =
  [ Oracle_probe; Rng_consume; Clock_read; Domain_spawn; Mutation; Io ]

let name = function
  | Oracle_probe -> "oracle-probe"
  | Rng_consume -> "rng-consume"
  | Clock_read -> "clock-read"
  | Domain_spawn -> "domain-spawn"
  | Mutation -> "mutation"
  | Io -> "io"

type set = int

let bit = function
  | Oracle_probe -> 1
  | Rng_consume -> 2
  | Clock_read -> 4
  | Domain_spawn -> 8
  | Mutation -> 16
  | Io -> 32

let empty = 0
let add e s = s lor bit e
let mem e s = s land bit e <> 0
let union = ( lor )
let to_list s = List.filter (fun e -> mem e s) all

type node = {
  file : string;
  binding : string;
  line : int;
  col : int;
  hot : bool;
  refs : Modgraph.occ list;
  callees : string list;
  base : set;
  effects : set;
}

module Smap = Map.Make (String)

type table = { by_id : node Smap.t }

let under dir file =
  String.length file >= String.length dir
  && String.sub file 0 (String.length dir) = dir

let strip_stdlib n =
  match String.length n with
  | l when l > 7 && String.sub n 0 7 = "Stdlib." -> String.sub n 7 (l - 7)
  | _ -> n

let prefixed p n =
  String.length n >= String.length p && String.sub n 0 (String.length p) = p

(* [n] is module [m] or a dotted use of it. *)
let module_use m n =
  n = m
  || (String.length n > String.length m
      && String.sub n 0 (String.length m) = m
      && n.[String.length m] = '.')

(* ---------------------------------------------------------------------- *)
(* base-effect seed tables                                                *)

let instance_accessor_bindings = [ "item"; "items"; "profits"; "weights" ]
let instance_file = "lib/knapsack/instance.ml"
let construction_dirs = [ "lib/knapsack/"; "lib/workloads/" ]

let parallel_modules =
  [ "Domain"; "Atomic"; "Mutex"; "Condition"; "Semaphore"; "Thread" ]

let io_exact =
  [ "print_string"; "print_endline"; "print_newline"; "print_int";
    "print_char"; "print_float"; "print_bytes"; "prerr_string";
    "prerr_endline"; "prerr_newline"; "read_line"; "read_int";
    "read_int_opt"; "open_in"; "open_in_bin"; "open_out"; "open_out_bin";
    "close_in"; "close_out"; "input_line"; "input_char"; "output_string";
    "output_bytes"; "output_char"; "really_input_string";
    "in_channel_length"; "stdout"; "stderr"; "Printf.printf";
    "Printf.eprintf"; "Format.printf"; "Format.eprintf"; "Sys.command";
    "Sys.readdir"; "Sys.remove"; "Sys.rename"; "Sys.getenv";
    "Sys.getenv_opt" ]
(* NB: [Printf.fprintf]/[Format.fprintf] write to a *passed*
   channel/formatter — the I/O is charged where the channel is opened
   ([open_out], [stdout], ...), not at the formatting call. *)

let io_prefix = [ "In_channel."; "Out_channel."; "Unix."; "Filename.temp" ]

let clock_exact = [ "Sys.time"; "Unix.gettimeofday"; "Unix.time" ]
let clock_prefix = [ "Monotonic_clock."; "Mtime."; "Bechamel." ]

let mutation_prefix =
  [ "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.remove"; "Hashtbl.reset";
    "Hashtbl.clear"; "Buffer.add"; "Buffer.clear"; "Buffer.reset";
    "Buffer.truncate"; "Bytes.set"; "Bytes.fill"; "Bytes.blit";
    "Array.set"; "Array.fill"; "Array.blit"; "Array.sort"; "Queue.";
    "Stack." ]

(* Effects seeded by an occurrence that resolved to no project binding. *)
let seed_of_external ~file (occ : Modgraph.occ) =
  let n = strip_stdlib occ.Modgraph.text in
  let s = ref empty in
  if
    Rule_oracle.names_accessor n
    && not (List.exists (fun d -> under d file) construction_dirs)
  then s := add Oracle_probe !s;
  if module_use "Random" n || prefixed "Rng." n || prefixed "Lk_util.Rng." n
  then s := add Rng_consume !s;
  if List.mem n clock_exact || List.exists (fun p -> prefixed p n) clock_prefix
     || prefixed "Stopwatch." n
     || prefixed "Lk_benchkit.Stopwatch." n
  then s := add Clock_read !s;
  if List.exists (fun m -> module_use m n) parallel_modules then
    s := add Domain_spawn !s;
  if List.exists (fun p -> prefixed p n) mutation_prefix then
    s := add Mutation !s;
  (* names already classified as clock reads charge Clock_read only,
     even though they sit under the [Unix.] prefix *)
  if
    (List.mem n io_exact || List.exists (fun p -> prefixed p n) io_prefix)
    && not (List.mem n clock_exact)
  then s := add Io !s;
  !s

(* Effects seeded by the binding's location: the vetted implementations
   of each effectful capability carry the class at the source. *)
let seed_of_file file =
  let s = ref empty in
  if file = "lib/util/rng.ml" then s := add Rng_consume !s;
  if file = "lib/benchkit/stopwatch.ml" then s := add Clock_read !s;
  !s

(* A resolved call edge into the raw instance accessors is an oracle
   probe unless the caller sits in the construction layers. *)
let seed_of_callee ~file callee_id =
  let is_accessor =
    List.exists
      (fun b -> callee_id = Callgraph.id ~file:instance_file ~name:b)
      instance_accessor_bindings
    || callee_id = Callgraph.id ~file:instance_file ~name:"*"
  in
  if
    is_accessor
    && (not (List.exists (fun d -> under d file) construction_dirs))
    && file <> instance_file
  then add Oracle_probe empty
  else empty

let base_of (n : Callgraph.node) =
  let s = ref (seed_of_file n.Callgraph.file) in
  if n.Callgraph.mutates then s := add Mutation !s;
  List.iter
    (fun occ -> s := union !s (seed_of_external ~file:n.Callgraph.file occ))
    n.Callgraph.externals;
  List.iter
    (fun c -> s := union !s (seed_of_callee ~file:n.Callgraph.file c))
    n.Callgraph.callees;
  !s

(* ---------------------------------------------------------------------- *)
(* fixpoint                                                               *)

let parallel_dir = "lib/parallel/"

(* What caller [bf] inherits from callee [cf]: everything, except that
   Domain_spawn is absorbed at the lib/parallel boundary. *)
let contribution ~caller_file ~callee_file eff =
  if under parallel_dir callee_file && not (under parallel_dir caller_file)
  then eff land lnot (bit Domain_spawn)
  else eff

let infer cg =
  let nodes = Callgraph.nodes cg in
  let base =
    List.fold_left
      (fun m (n : Callgraph.node) ->
        Smap.add
          (Callgraph.id ~file:n.Callgraph.file ~name:n.Callgraph.name)
          (base_of n) m)
      Smap.empty nodes
  in
  let eff = ref base in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (n : Callgraph.node) ->
        let nid = Callgraph.id ~file:n.Callgraph.file ~name:n.Callgraph.name in
        let cur = Smap.find nid !eff in
        let next =
          List.fold_left
            (fun acc c ->
              match Callgraph.find cg c with
              | None -> acc
              | Some callee ->
                  union acc
                    (contribution ~caller_file:n.Callgraph.file
                       ~callee_file:callee.Callgraph.file
                       (Smap.find c !eff)))
            cur n.Callgraph.callees
        in
        if next <> cur then begin
          eff := Smap.add nid next !eff;
          changed := true
        end)
      nodes
  done;
  let by_id =
    List.fold_left
      (fun m (n : Callgraph.node) ->
        let nid = Callgraph.id ~file:n.Callgraph.file ~name:n.Callgraph.name in
        Smap.add nid
          {
            file = n.Callgraph.file;
            binding = n.Callgraph.name;
            line = n.Callgraph.line;
            col = n.Callgraph.col;
            hot = n.Callgraph.hot;
            refs = n.Callgraph.refs;
            callees = n.Callgraph.callees;
            base = Smap.find nid base;
            effects = Smap.find nid !eff;
          }
          m)
      Smap.empty nodes
  in
  { by_id }

let nodes t = Smap.bindings t.by_id |> List.map snd
let find t ~file ~binding = Smap.find_opt (file ^ "#" ^ binding) t.by_id

let display n =
  let m =
    String.capitalize_ascii
      (Filename.remove_extension (Filename.basename n.file))
  in
  m ^ "." ^ n.binding

(* BFS from [source] to the nearest binding whose base carries the
   effect, following sorted callee lists; deterministic by construction. *)
let witness t ~source ~effect_ =
  let target n = mem effect_ n.base in
  if target source then [ display source ]
  else begin
    let visited = Hashtbl.create 64 in
    let parent = Hashtbl.create 64 in
    let source_id = source.file ^ "#" ^ source.binding in
    Hashtbl.replace visited source_id ();
    let queue = Queue.create () in
    Queue.push source_id queue;
    let found = ref None in
    while !found = None && not (Queue.is_empty queue) do
      let cur = Queue.pop queue in
      match Smap.find_opt cur t.by_id with
      | None -> ()
      | Some n ->
          List.iter
            (fun c ->
              if !found = None && not (Hashtbl.mem visited c) then begin
                Hashtbl.replace visited c ();
                Hashtbl.replace parent c cur;
                match Smap.find_opt c t.by_id with
                | Some cn when target cn && mem effect_ cn.effects ->
                    found := Some c
                | Some cn when mem effect_ cn.effects -> Queue.push c queue
                | _ -> ()
              end)
            n.callees
    done;
    match !found with
    | None -> [ display source ]
    | Some last ->
        let rec chain acc cur =
          if cur = source_id then cur :: acc
          else
            match Hashtbl.find_opt parent cur with
            | Some p -> chain (cur :: acc) p
            | None -> cur :: acc
        in
        chain [] last
        |> List.map (fun cid ->
               match Smap.find_opt cid t.by_id with
               | Some n -> display n
               | None -> cid)
  end
