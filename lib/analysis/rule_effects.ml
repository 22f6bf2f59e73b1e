let id_determinism = "effect-determinism-reach"
let id_parallel = "effect-parallel-confinement"
let id_hot = "effect-hot-alloc"

let rules =
  [ (id_determinism,
     "lib/core answer path transitively reaches a clock read or I/O");
    (id_parallel,
     "Domain/Atomic reachable through a spawner outside \
      Lk_parallel.Engine");
    (id_hot,
     "closure-allocating List/Option idiom inside a [@hot] or \
      lint.hot-manifest binding") ]

let under dir file =
  String.length file >= String.length dir
  && String.sub file 0 (String.length dir) = dir

(* ---------------------------------------------------------------------- *)
(* lint.hot manifest                                                      *)

let load_manifest path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let content = really_input_string ic len in
    close_in ic;
    String.split_on_char '\n' content
    |> List.filter_map (fun raw ->
           let body =
             match String.index_opt raw '#' with
             | Some j -> String.sub raw 0 j
             | None -> raw
           in
           match String.trim body with "" -> None | p -> Some p)
  end

let in_manifest manifest file =
  List.exists
    (fun entry ->
      if entry = file then true
      else
        String.length entry > 0
        && entry.[String.length entry - 1] = '/'
        && under entry file)
    manifest

(* ---------------------------------------------------------------------- *)
(* (a) confinement sites                                                  *)

let check_sites (n : Effects.node) =
  List.map
    (fun ((occ : Modgraph.occ), (r : Effects.row)) ->
      Finding.make ~rule:r.Effects.rule ~file:n.Effects.file
        ~line:occ.Modgraph.line ~col:occ.Modgraph.col
        (Printf.sprintf "'%s' %s" occ.Modgraph.text r.Effects.why))
    n.Effects.sites

(* ---------------------------------------------------------------------- *)
(* (b) determinism reachability on the lib/core answer path              *)

let core_dir = "lib/core/"
let core_banned = [ Effects.Clock_read; Effects.Io ]

let effect_noun = function
  | Effects.Clock_read -> "a clock read"
  | Effects.Io -> "channel/console I/O"
  | e -> Effects.name e

(* Report at the boundary: the core binding whose own body, or whose
   first out-of-core callee, carries the effect — so one smuggled clock
   read yields one finding, not one per transitive caller. *)
let check_determinism table (n : Effects.node) =
  if not (under core_dir n.Effects.file) || n.Effects.binding = "*" then []
  else
    List.filter_map
      (fun e ->
        if not (Effects.mem e n.Effects.effects) then None
        else
          let direct = Effects.mem e n.Effects.base in
          let via_out_of_core =
            List.exists
              (fun c ->
                match String.index_opt c '#' with
                | None -> false
                | Some i -> (
                    let cf = String.sub c 0 i in
                    let cb = String.sub c (i + 1) (String.length c - i - 1) in
                    (not (under core_dir cf))
                    &&
                    match Effects.find table ~file:cf ~binding:cb with
                    | Some cn -> Effects.mem e cn.Effects.effects
                    | None -> false))
              n.Effects.callees
          in
          if direct || via_out_of_core then
            let chain = Effects.witness table ~source:n ~effect_:e in
            Some
              (Finding.make ~rule:id_determinism ~file:n.Effects.file
                 ~line:n.Effects.line ~col:n.Effects.col
                 (Printf.sprintf
                    "'%s' is on the lib/core answer path but transitively \
                     reaches %s (via %s); an answer must be a pure function \
                     of (params, seed, oracle)"
                    n.Effects.binding (effect_noun e)
                    (String.concat " -> " chain)))
          else None)
      core_banned

(* ---------------------------------------------------------------------- *)
(* (c) parallel confinement                                               *)

let parallel_dir = "lib/parallel/"

let check_parallel table (n : Effects.node) =
  if
    under parallel_dir n.Effects.file
    || n.Effects.binding = "*"
    || Effects.mem Effects.Domain_spawn n.Effects.base
  then []
  else
    let spawning_callee =
      List.find_map
        (fun c ->
          match String.index_opt c '#' with
          | None -> None
          | Some i -> (
              let cf = String.sub c 0 i in
              let cb = String.sub c (i + 1) (String.length c - i - 1) in
              if under parallel_dir cf then None
              else
                match Effects.find table ~file:cf ~binding:cb with
                | Some cn when Effects.mem Effects.Domain_spawn cn.Effects.base
                  ->
                    Some cn
                | _ -> None))
        n.Effects.callees
    in
    match spawning_callee with
    | None -> []
    | Some cn ->
        [ Finding.make ~rule:id_parallel ~file:n.Effects.file
            ~line:n.Effects.line ~col:n.Effects.col
            (Printf.sprintf
               "'%s' reaches Domain/Atomic through '%s' (%s), which is not \
                Lk_parallel.Engine; all shared-memory parallelism must be \
                blessed by the deterministic engine"
               n.Effects.binding cn.Effects.binding cn.Effects.file) ]

(* ---------------------------------------------------------------------- *)
(* (d) hot-path allocation discipline                                     *)

let closure_idioms =
  [ "List.map"; "List.mapi"; "List.map2"; "List.rev_map"; "List.filter";
    "List.filter_map"; "List.concat_map"; "List.fold_left";
    "List.fold_right"; "List.iter"; "List.iteri"; "List.init";
    "List.exists"; "List.for_all"; "List.sort"; "List.sort_uniq";
    "Option.map"; "Option.bind"; "Option.fold"; "Option.iter";
    "Option.to_list" ]

let closure_hit text =
  let text =
    match String.length text with
    | l when l > 7 && String.sub text 0 7 = "Stdlib." ->
        String.sub text 7 (l - 7)
    | _ -> text
  in
  List.mem text closure_idioms

let check_hot ~manifest (n : Effects.node) =
  if
    n.Effects.binding = "*"
    || not (n.Effects.hot || in_manifest manifest n.Effects.file)
  then []
  else
    List.filter_map
      (fun (occ : Modgraph.occ) ->
        if closure_hit occ.Modgraph.text then
          Some
            (Finding.make ~severity:Finding.Warning ~rule:id_hot
               ~file:n.Effects.file ~line:occ.Modgraph.line
               ~col:occ.Modgraph.col
               (Printf.sprintf
                  "'%s' allocates a closure/list on the hot path of '%s'; \
                   rewrite over the flat scratch workspace (see DESIGN.md \
                   §14) or drop the [@hot] tag / lint.hot entry"
                  occ.Modgraph.text n.Effects.binding))
        else None)
      n.Effects.refs

let check ~manifest table =
  Effects.nodes table
  |> List.concat_map (fun n ->
         check_sites n
         @ check_determinism table n
         @ check_parallel table n
         @ check_hot ~manifest n)
