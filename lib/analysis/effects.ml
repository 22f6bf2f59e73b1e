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

(* ---------------------------------------------------------------------- *)
(* confinement table                                                      *)

type target = Names of string list | File of string * string list

type row = {
  rule : string;
  target : target;
  home : string list;
  seeds : effect_class option;
  why : string;
}

let banned why =
  Printf.sprintf
    "is banned (%s); derive all randomness from the shared seed via \
     Lk_util.Rng (of_path/split)"
    why

let oracle_dir = "lib/oracle/"

let rows =
  [ (* determinism: every source of randomness or time must flow through
       Lk_util.Rng, the SplitMix64 generator derived from the shared
       read-only seed r of Definition 2.2.  Banned everywhere, including
       Random.self_init; Sys.time_foo or Hashtbl.hash_param are other
       values and do not match. *)
    { rule = "determinism"; target = Names [ "Random" ]; home = [];
      seeds = Some Rng_consume;
      why = banned "the Random module is ambient, unseeded state" };
    { rule = "determinism"; target = Names [ "Sys.time" ]; home = [];
      seeds = Some Clock_read;
      why = banned "wall-clock process time is not a function of the seed" };
    { rule = "determinism"; target = Names [ "Unix.gettimeofday"; "Unix.time" ];
      home = []; seeds = Some Clock_read;
      why = banned "wall-clock time is not a function of the seed" };
    { rule = "determinism"; target = Names [ "Hashtbl.hash" ]; home = [];
      seeds = None;
      why = banned "polymorphic hash is not a seeded randomness source" };
    (* parallelism-discipline: the engine in lib/parallel is the one place
       that may spawn domains or share mutable state, because it is the one
       place that enforces the determinism contract (index-derived streams,
       index-ordered merge).  A Domain.spawn or ad-hoc Atomic anywhere else
       can reintroduce schedule-dependent output that no test would
       reliably catch.  The quantile domain lib/reproducible/domain.ml
       resolves as a project module, so it is never Stdlib.Domain. *)
    { rule = "parallelism-discipline";
      target =
        Names
          [ "Domain"; "Atomic"; "Mutex"; "Condition"; "Semaphore"; "Thread";
            "Effect" ];
      home = [ "lib/parallel/" ]; seeds = Some Domain_spawn;
      why =
        "uses a shared-memory parallelism primitive outside lib/parallel; \
         run trials through Lk_parallel.Engine (or allowlist with a \
         justification)" };
    (* timing-discipline: clock reads live in lib/benchkit (and the
       unlinted bench/ harness) only.  Lk_benchkit.Stopwatch is the vetted
       wrapper: timing obtained through it is observational by
       construction (printed, never branched on), so experiment output
       stays a function of the seed.  Wall-clock reads are determinism
       rows above. *)
    { rule = "timing-discipline";
      target = Names [ "Monotonic_clock"; "Mtime"; "Bechamel" ];
      home = [ "lib/benchkit/" ]; seeds = Some Clock_read;
      why =
        "reads a clock outside lib/benchkit; time through \
         Lk_benchkit.Stopwatch (observational only) or move the measurement \
         into bench/" };
    (* counting-discipline: Lk_counting.Robp is the only materialization of
       an instance the counters ever see, and it is built through
       Query_oracle: read-once, one counted query per item.  Code outside
       lib/counting that named the frozen program (or the raw DP internals
       over it) could count without being billed, because weights read off
       a Robp.t charge nothing.  Everyone else goes through the counting
       facades (Exact.count, Gkm.count, Svv.count, Sampler.of_oracle),
       which take the oracle itself and leave an auditable query trail. *)
    { rule = "counting-discipline"; target = File ("lib/counting/robp.ml", []);
      home = [ "lib/counting/" ]; seeds = None;
      why =
        "names the frozen branching program outside lib/counting; go \
         through the counting facades (Exact/Gkm/Svv/Sampler), which build \
         it through Query_oracle so every probe is billed" };
    { rule = "counting-discipline";
      target = File ("lib/counting/state_dp.ml", []);
      home = [ "lib/counting/" ]; seeds = None;
      why =
        "drives the raw counting DP outside lib/counting; go through \
         Lk_counting.Exact, which owns the exact-engine dispatch" };
    { rule = "counting-discipline";
      target = File ("lib/counting/count_scratch.ml", []);
      home = [ "lib/counting/" ]; seeds = None;
      why =
        "reaches into the counting kernels' flat workspaces outside \
         lib/counting; the facades own their scratch lifetimes" };
    (* oracle-discipline: every read of an input item is a probe of
       Definition 2.2, and the per-probe counters behind every
       sublinearity claim see only reads made through lib/oracle (Access,
       the query oracles): only their reads seed Oracle_probe.  The layers
       below it build and solve whole instances: lib/knapsack and
       lib/workloads. *)
    { rule = "oracle-discipline";
      target =
        File
          ("lib/knapsack/instance.ml", [ "item"; "items"; "profits"; "weights" ]);
      home = [ oracle_dir; "lib/knapsack/"; "lib/workloads/" ];
      seeds = Some Oracle_probe;
      why =
        "reads instance items directly above the oracle layer; go through \
         Lk_oracle.Access so probe counters stay sound (or allowlist with a \
         justification)" } ]

(* [n] is module [m] or a dotted use of it. *)
let module_use m n =
  n = m
  || (String.length n > String.length m
      && String.sub n 0 (String.length m) = m
      && n.[String.length m] = '.')

(* A file row also charges a path no project module resolves that names
   the file's module ([Instance.items] under a local open the resolver
   does not follow): attributed coarsely, never dropped. *)
let charges row (use : Callgraph.use) =
  match (row.target, use) with
  | Names names, Callgraph.External path ->
      List.exists (fun m -> module_use m path) names
  | File (file, names), Callgraph.Project p ->
      p.file = file && (names = [] || List.mem p.name names)
  | File (file, names), Callgraph.External path ->
      let m = Callgraph.module_of_file file in
      let rec named = function
        | s :: v :: _ when s = m && (names = [] || List.mem v names) -> true
        | [ s ] -> s = m && names = []
        | _ :: rest -> named rest
        | [] -> false
      in
      named (String.split_on_char '.' path)
  | Names _, Callgraph.Project _ -> false

type node = {
  file : string;
  binding : string;
  line : int;
  col : int;
  hot : bool;
  refs : Modgraph.occ list;
  callees : string list;
  sites : (Modgraph.occ * row) list;
  base : set;
  effects : set;
}

module Smap = Map.Make (String)

type table = { by_id : node Smap.t }

let under dir file =
  String.length file >= String.length dir
  && String.sub file 0 (String.length dir) = dir

let prefixed p n =
  String.length n >= String.length p && String.sub n 0 (String.length p) = p

(* ---------------------------------------------------------------------- *)
(* base-effect seeds                                                      *)

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

let mutation_prefix =
  [ "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.remove"; "Hashtbl.reset";
    "Hashtbl.clear"; "Buffer.add"; "Buffer.clear"; "Buffer.reset";
    "Buffer.truncate"; "Bytes.set"; "Bytes.fill"; "Bytes.blit";
    "Array.set"; "Array.fill"; "Array.blit"; "Array.sort"; "Queue.";
    "Stack." ]

(* Effects of an external name no row charges. *)
let seed_of_name n =
  let s = ref empty in
  if prefixed "Rng." n || prefixed "Lk_util.Rng." n then
    s := add Rng_consume !s;
  if prefixed "Stopwatch." n || prefixed "Lk_benchkit.Stopwatch." n then
    s := add Clock_read !s;
  if List.exists (fun p -> prefixed p n) mutation_prefix then
    s := add Mutation !s;
  if List.mem n io_exact || List.exists (fun p -> prefixed p n) io_prefix
  then s := add Io !s;
  !s

(* Effects seeded by the binding's location: the vetted implementations
   of each effectful capability carry the class at the source. *)
let seed_of_file file =
  let s = ref empty in
  if file = "lib/util/rng.ml" then s := add Rng_consume !s;
  if file = "lib/benchkit/stopwatch.ml" then s := add Clock_read !s;
  !s

(* A binding's base effects and its confinement sites.  A use that rows
   charge seeds their classes only ([Unix.time] is a clock read, not
   I/O), and is a site wherever the file is outside a row's home.  An
   item read is a probe only in lib/oracle: below it, reads build
   instances; above it, they are sites.  The coarse node's uses are the
   file's declarations ([open], [type], ...): sites, but never seeds, or
   every caller that falls back to the coarse node would inherit them. *)
let base_and_sites ~charged (n : Callgraph.node) =
  let file = n.Callgraph.file in
  let base = seed_of_file file in
  let base = if n.Callgraph.mutates then add Mutation base else base in
  let base, sites =
    List.fold_left
      (fun (base, sites) (occ, use) ->
        let charged = charged use in
        let base =
          if n.Callgraph.name = "*" then base
          else
            match (charged, use) with
            | [], Callgraph.External name -> union base (seed_of_name name)
            | _ ->
                List.fold_left
                  (fun s r ->
                    match r.seeds with
                    | Some Oracle_probe when not (under oracle_dir file) -> s
                    | Some e -> add e s
                    | None -> s)
                  base charged
        in
        let sites =
          List.fold_left
            (fun sites r ->
              if List.exists (fun d -> under d file) r.home then sites
              else (occ, r) :: sites)
            sites charged
        in
        (base, sites))
      (base, []) n.Callgraph.uses
  in
  (base, List.rev sites)

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
  (* the rows charging each distinct use, computed once *)
  let memo = Hashtbl.create 4096 in
  let charged use =
    match Hashtbl.find_opt memo use with
    | Some rs -> rs
    | None ->
        let rs = List.filter (fun r -> charges r use) rows in
        Hashtbl.replace memo use rs;
        rs
  in
  let seeded =
    List.fold_left
      (fun m (n : Callgraph.node) ->
        Smap.add
          (Callgraph.id ~file:n.Callgraph.file ~name:n.Callgraph.name)
          (base_and_sites ~charged n) m)
      Smap.empty nodes
  in
  let eff = ref (Smap.map fst seeded) in
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
            refs = List.map fst n.Callgraph.uses;
            callees = n.Callgraph.callees;
            sites = snd (Smap.find nid seeded);
            base = fst (Smap.find nid seeded);
            effects = Smap.find nid !eff;
          }
          m)
      Smap.empty nodes
  in
  { by_id }

let nodes t = Smap.bindings t.by_id |> List.map snd
let find t ~file ~binding = Smap.find_opt (file ^ "#" ^ binding) t.by_id

let display n = Callgraph.module_of_file n.file ^ "." ^ n.binding

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
