type use = Project of { file : string; name : string } | External of string

type node = {
  file : string;
  name : string;
  line : int;
  col : int;
  hot : bool;
  mutates : bool;
  callees : string list;
  uses : (Modgraph.occ * use) list;
}

module Smap = Map.Make (String)

type t = { by_id : node Smap.t }

let id ~file ~name = file ^ "#" ^ name

let is_upper_start s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'
let is_lower_start s = s <> "" && ((s.[0] >= 'a' && s.[0] <= 'z') || s.[0] = '_')

let strip_stdlib path =
  let p = "Stdlib." in
  if String.starts_with ~prefix:p path then
    String.sub path (String.length p) (String.length path - String.length p)
  else path

let module_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

(* Split a dotted occurrence into (leading capitalized module path,
   remaining segments, projection?) after stripping leading lowercase
   receivers: [inst.Instance.items] and [.Item.profit] are field
   *projections* — if their trailing name is not a known binding they
   must not smear into the coarse per-file node. *)
let split_path text =
  let projection = text <> "" && text.[0] = '.' in
  let segs = String.split_on_char '.' text in
  let segs = List.filter (fun s -> s <> "") segs in
  let rec drop_lower dropped = function
    | s :: rest when is_lower_start s && List.exists is_upper_start rest ->
        drop_lower true rest
    | l -> (dropped, l)
  in
  let dropped, segs = drop_lower false segs in
  let rec take_caps acc = function
    | s :: rest when is_upper_start s -> take_caps (s :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let caps, vals = take_caps [] segs in
  (caps, vals, projection || dropped)

let build ~libmap summaries =
  (* (dir, Module) -> file, and file -> summary *)
  let file_of_mod =
    List.fold_left
      (fun m (file, _) ->
        Smap.add (Filename.dirname file ^ "/" ^ module_of_file file) file m)
      Smap.empty summaries
  in
  let summary_of_file =
    List.fold_left (fun m (file, s) -> Smap.add file s m) Smap.empty summaries
  in
  let lookup_mod dir m = Smap.find_opt (dir ^ "/" ^ m) file_of_mod in
  let lib_dir name = List.assoc_opt name libmap in
  let has_binding tf v =
    match Smap.find_opt tf summary_of_file with
    | Some (s : Modgraph.summary) ->
        List.exists
          (fun (b : Modgraph.binding) -> b.Modgraph.name = v)
          s.Modgraph.bindings
    | None -> false
  in
  (* Rewrite the head of a module path through [summary]'s aliases. *)
  let substitute (summary : Modgraph.summary) = function
    | head :: rest as original -> (
        match List.assoc_opt head summary.Modgraph.aliases with
        | Some path -> String.split_on_char '.' path @ rest
        | None -> original)
    | [] -> []
  in
  (* Resolve an alias-substituted module path (capitalized segments) seen
     from [file] to a target file plus the segments left over once the
     file is reached. *)
  let resolve_module_path file (summary : Modgraph.summary) caps =
    let dir = Filename.dirname file in
    let via_path = function
      | [] -> None
      | head :: rest -> (
          match lib_dir head with
          | Some d -> (
              match rest with
              | m :: rest' -> (
                  match lookup_mod d m with
                  | Some tf -> Some (tf, rest')
                  | None -> None)
              | [] -> None)
          | None -> (
              match lookup_mod dir head with
              | Some tf -> Some (tf, rest)
              | None ->
                  (* try each opened path: [open Lk_x] makes [head] a
                     candidate module of lib x; [open Lk_x.M] or [open M]
                     of a sibling makes it a candidate submodule of that
                     file, taken only if the file defines it, so an open
                     never hides a Stdlib name *)
                  let submodule tf =
                    if has_binding tf head then Some (tf, head :: rest)
                    else None
                  in
                  List.find_map
                    (fun o ->
                      match String.split_on_char '.' o with
                      | [ l ] -> (
                          match lib_dir l with
                          | Some d -> (
                              match lookup_mod d head with
                              | Some tf -> Some (tf, rest)
                              | None -> None)
                          | None -> Option.bind (lookup_mod dir l) submodule)
                      | l :: m :: _ ->
                          Option.bind (lib_dir l) (fun d ->
                              Option.bind (lookup_mod d m) submodule)
                      | [] -> None)
                    summary.Modgraph.opens))
    in
    via_path caps
  in
  (* Pick a binding inside [tf] for leftover segments [subs] and value
     [v]; fall back to the coarse "*" node, except for the conventional
     type name [t] whose lookup failure is a type annotation, and for
     record projections ([it.Item.weight]) whose unresolved trailing
     name is a field read, not a call. *)
  let binding_in ~projection tf subs v =
    let candidates =
      match subs with
      | [] -> [ v ]
      | sub :: _ -> [ String.concat "." (subs @ [ v ]); sub; v ]
    in
    match List.find_opt (has_binding tf) candidates with
    | Some n -> Some (id ~file:tf ~name:n)
    | None ->
        if v = "t" || projection then None else Some (id ~file:tf ~name:"*")
  in
  (* An occurrence's use, and the node it calls if any. *)
  let resolve file summary (occ : Modgraph.occ) =
    let caps, vals, projection = split_path occ.Modgraph.text in
    let external_ caps =
      (External (strip_stdlib (String.concat "." (caps @ vals))), None)
    in
    match (caps, vals) with
    | [], [ v ] -> (
        (* unqualified value: same-file binding, else a binding of an
           opened project module *)
        let opened o =
          match
            resolve_module_path file summary
              (substitute summary (String.split_on_char '.' o))
          with
          | Some (tf, []) when has_binding tf v -> Some tf
          | _ -> None
        in
        let target =
          if has_binding file v then Some file
          else List.find_map opened summary.Modgraph.opens
        in
        match target with
        | Some tf ->
            (Project { file = tf; name = v }, Some (id ~file:tf ~name:v))
        | None -> external_ [])
    | [], _ -> external_ []
    | caps, _ -> (
        let caps = substitute summary caps in
        match (resolve_module_path file summary caps, vals) with
        | Some (tf, _), [] ->
            (* a bare module or constructor mention calls nothing *)
            (Project { file = tf; name = "" }, None)
        | Some (tf, subs), v :: _ ->
            (Project { file = tf; name = v }, binding_in ~projection tf subs v)
        | None, _ -> external_ caps)
  in
  let nodes = ref [] in
  List.iter
    (fun (file, (summary : Modgraph.summary)) ->
      let bindings = summary.Modgraph.bindings in
      let resolve_all =
        List.map (fun occ -> (occ, resolve file summary occ))
      in
      let uses_of = List.map (fun (occ, (use, _)) -> (occ, use)) in
      List.iter
        (fun (b : Modgraph.binding) ->
          let self = id ~file ~name:b.Modgraph.name in
          let resolved = resolve_all b.Modgraph.refs in
          nodes :=
            {
              file;
              name = b.Modgraph.name;
              line = b.Modgraph.line;
              col = b.Modgraph.col;
              hot = b.Modgraph.hot;
              mutates = b.Modgraph.mutates;
              callees =
                List.filter_map
                  (fun (_, (_, callee)) ->
                    match callee with
                    | Some c when c <> self -> Some c
                    | _ -> None)
                  resolved
                |> List.sort_uniq compare;
              uses = uses_of resolved;
            }
            :: !nodes)
        bindings;
      (* the coarse per-file node, which also holds the file's
         declaration occurrences *)
      nodes :=
        {
          file;
          name = "*";
          line = 1;
          col = 1;
          hot = false;
          mutates = false;
          callees =
            List.map
              (fun (b : Modgraph.binding) -> id ~file ~name:b.Modgraph.name)
              bindings
            |> List.sort_uniq compare;
          uses = uses_of (resolve_all summary.Modgraph.decls);
        }
        :: !nodes)
    summaries;
  let by_id =
    List.fold_left
      (fun m n -> Smap.add (id ~file:n.file ~name:n.name) n m)
      Smap.empty !nodes
  in
  { by_id }

let nodes t = Smap.bindings t.by_id |> List.map snd
let find t node_id = Smap.find_opt node_id t.by_id
