type row = {
  rule : string;
  modules : string list;
  home : string option;
  why : string;
}

let banned why =
  Printf.sprintf
    "is banned (%s); derive all randomness from the shared seed via \
     Lk_util.Rng (of_path/split)"
    why

let rows =
  [ (* determinism: every source of randomness or time must flow through
       Lk_util.Rng, the SplitMix64 generator derived from the shared
       read-only seed r of Definition 2.2.  Banned everywhere, including
       Random.self_init; Sys.time_foo or Hashtbl.hash_param are other
       values and do not match. *)
    { rule = "determinism"; modules = [ "Random" ]; home = None;
      why = banned "the Random module is ambient, unseeded state" };
    { rule = "determinism"; modules = [ "Sys.time" ]; home = None;
      why = banned "wall-clock process time is not a function of the seed" };
    { rule = "determinism"; modules = [ "Unix.gettimeofday"; "Unix.time" ];
      home = None;
      why = banned "wall-clock time is not a function of the seed" };
    { rule = "determinism"; modules = [ "Hashtbl.hash" ]; home = None;
      why = banned "polymorphic hash is not a seeded randomness source" };
    (* parallelism-discipline: the engine in lib/parallel is the one place
       that may spawn domains or share mutable state, because it is the one
       place that enforces the determinism contract (index-derived streams,
       index-ordered merge).  A Domain.spawn or ad-hoc Atomic anywhere else
       can reintroduce schedule-dependent output that no test would
       reliably catch.  The project-local Domain module in
       lib/reproducible is a quantile domain, not Stdlib.Domain: qualified
       as Lk_repro.Domain it never matches, and its unqualified uses inside
       lib/reproducible are vetted in lint.allow. *)
    { rule = "parallelism-discipline";
      modules =
        [ "Domain"; "Atomic"; "Mutex"; "Condition"; "Semaphore"; "Thread";
          "Effect" ];
      home = Some "lib/parallel/";
      why =
        "uses a shared-memory parallelism primitive outside lib/parallel; \
         run trials through Lk_parallel.Engine (or allowlist with a \
         justification)" };
    (* timing-discipline: clock reads live in lib/benchkit (and the
       unlinted bench/ harness) only.  Lk_benchkit.Stopwatch is the vetted
       wrapper: timing obtained through it is observational by
       construction (printed, never branched on), so experiment output
       stays a function of the seed.  A raw monotonic-clock or bechamel
       call anywhere else is either dead weight or a determinism leak
       waiting to happen.  Wall-clock reads are determinism rows above. *)
    { rule = "timing-discipline";
      modules = [ "Monotonic_clock"; "Mtime"; "Bechamel" ];
      home = Some "lib/benchkit/";
      why =
        "reads a clock outside lib/benchkit; time through \
         Lk_benchkit.Stopwatch (observational only) or move the measurement \
         into bench/" };
    (* counting-discipline: Lk_counting.Robp is the only materialization of
       an instance the counters ever see, and it is built through
       Query_oracle: read-once, one counted query per item.  Code outside
       lib/counting that named the frozen program (or the raw DP internals
       over it) could count without being billed, because weights read off
       a Robp.t charge nothing; a second consumer would break the "every
       probe is visible in oracle counters and obs profiles" invariant
       E13/E14 rest on.  Everyone else goes through the counting facades
       (Exact.count, Gkm.count, Svv.count, Sampler.of_oracle), which take
       the oracle itself and leave an auditable query trail. *)
    { rule = "counting-discipline";
      modules = [ "Lk_counting.Robp" ];
      home = Some "lib/counting/";
      why =
        "names the frozen branching program outside lib/counting; go \
         through the counting facades (Exact/Gkm/Svv/Sampler), which build \
         it through Query_oracle so every probe is billed" };
    { rule = "counting-discipline";
      modules = [ "Lk_counting.State_dp" ];
      home = Some "lib/counting/";
      why =
        "drives the raw counting DP outside lib/counting; go through \
         Lk_counting.Exact, which owns the exact-engine dispatch" };
    { rule = "counting-discipline";
      modules = [ "Lk_counting.Count_scratch" ];
      home = Some "lib/counting/";
      why =
        "reaches into the counting kernels' flat workspaces outside \
         lib/counting; the facades own their scratch lifetimes" } ]

let strip_stdlib name =
  let p = "Stdlib." in
  if String.starts_with ~prefix:p name then
    String.sub name (String.length p) (String.length name - String.length p)
  else name

(* [name] is module [m] or a path inside it. *)
let names m name =
  String.starts_with ~prefix:m name
  && (String.length name = String.length m || name.[String.length m] = '.')

let check ~file tokens =
  let rows =
    List.filter
      (fun r ->
        match r.home with
        | Some dir -> not (String.starts_with ~prefix:dir file)
        | None -> true)
      rows
  in
  Array.fold_right
    (fun (t : Tokenizer.token) acc ->
      if t.Tokenizer.kind <> Tokenizer.Ident then acc
      else
        let text = t.Tokenizer.text in
        let name = strip_stdlib text in
        List.fold_right
          (fun r acc ->
            if List.exists (fun m -> names m name) r.modules then
              Finding.make ~rule:r.rule ~file ~line:t.Tokenizer.line
                ~col:t.Tokenizer.col
                (Printf.sprintf "'%s' %s" text r.why)
              :: acc
            else acc)
          rows acc)
    tokens []
