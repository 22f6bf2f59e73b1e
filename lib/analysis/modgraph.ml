type occ = { text : string; line : int; col : int }

type binding = {
  name : string;
  line : int;
  col : int;
  hot : bool;
  mutates : bool;
  refs : occ list;
}

type summary = {
  opens : string list;
  aliases : (string * string) list;
  bindings : binding list;
  decls : occ list;
}

(* Column-1 keywords that start a new top-level structure item.  [end] is
   included so a [module M = struct ... end] block closed at column 1 does
   not swallow what follows it; [and] continues a [let rec] group as a new
   binding. *)
let structure_keywords =
  [ "let"; "and"; "module"; "open"; "include"; "type"; "exception";
    "external"; "class"; "end" ]

(* Keywords never recorded as references: they can't name a binding, and
   dropping them keeps ref lists small. *)
let noise_keywords =
  [ "let"; "rec"; "and"; "in"; "if"; "then"; "else"; "match"; "with";
    "fun"; "function"; "try"; "begin"; "end"; "struct"; "sig"; "object";
    "when"; "as"; "of"; "type"; "module"; "open"; "include"; "val";
    "mutable"; "lazy"; "assert"; "exception"; "external"; "done"; "do";
    "while"; "for"; "to"; "downto"; "new"; "class"; "true"; "false";
    "private"; "virtual"; "inherit"; "constraint"; "method"; "nonrec" ]

let is_noise t = List.mem t noise_keywords
let is_upper_start s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'

(* Token index ranges [start, stop) of top-level structure items. *)
let segments (tokens : Tokenizer.token array) =
  let n = Array.length tokens in
  let is_boundary i =
    let t = tokens.(i) in
    t.Tokenizer.kind = Tokenizer.Ident
    && t.Tokenizer.col = 1
    && List.mem t.Tokenizer.text structure_keywords
  in
  let out = ref [] in
  let i = ref 0 in
  while !i < n && not (is_boundary !i) do
    incr i
  done;
  while !i < n do
    let start = !i in
    incr i;
    while !i < n && not (is_boundary !i) do
      incr i
    done;
    out := (start, !i) :: !out
  done;
  List.rev !out

(* The body of a segment contains a [[@hot]] / [[@@hot]] attribute? *)
let has_hot tokens start stop =
  let rec go i =
    if i + 2 >= stop then false
    else
      let open Tokenizer in
      match (tokens.(i), tokens.(i + 1), tokens.(i + 2)) with
      | ( { kind = Punct; text = "["; _ },
          { kind = Op; text = "@" | "@@"; _ },
          { kind = Ident; text = "hot"; _ } ) ->
          true
      | _ -> go (i + 1)
  in
  go start

let refs_of tokens start stop ~skip =
  let out = ref [] in
  for i = start to stop - 1 do
    let t = tokens.(i) in
    if
      t.Tokenizer.kind = Tokenizer.Ident
      && (not (is_noise t.Tokenizer.text))
      && not (List.mem i skip)
    then
      out :=
        { text = t.Tokenizer.text; line = t.Tokenizer.line; col = t.Tokenizer.col }
        :: !out
  done;
  List.rev !out

let mutates_in tokens start stop =
  let rec go i =
    if i >= stop then false
    else
      let t = tokens.(i) in
      if t.Tokenizer.kind = Tokenizer.Op && (t.Tokenizer.text = ":=" || t.Tokenizer.text = "<-")
      then true
      else go (i + 1)
  in
  go start

let of_tokens (tokens : Tokenizer.token array) =
  let opens = ref [] and aliases = ref [] and bindings = ref [] in
  let decls = ref [] in
  (* occurrences of a top-level item that binds no value; [skip] is the
     name it defines, which is not a use *)
  let decl ?(skip = []) start stop =
    decls := refs_of tokens start stop ~skip :: !decls
  in
  let add_binding ~kw_index ~start ~stop =
    let kw = tokens.(kw_index) in
    (* skip [rec] and attributes ([let[@hot] f] puts [[@hot]] between the
       keyword and the name); the binding name is the next identifier if
       there is one — [let () = ...] and operator definitions stay
       anonymous *)
    let name_index =
      let rec scan i =
        if i >= stop then None
        else
          let t = tokens.(i) in
          match t.Tokenizer.kind with
          | Tokenizer.Ident when t.Tokenizer.text = "rec" -> scan (i + 1)
          | Tokenizer.Ident -> Some i
          | Tokenizer.Punct
            when t.Tokenizer.text = "["
                 && i + 1 < stop
                 && tokens.(i + 1).Tokenizer.kind = Tokenizer.Op
                 && (tokens.(i + 1).Tokenizer.text = "@"
                    || tokens.(i + 1).Tokenizer.text = "@@") -> (
              let rec close j depth =
                if j >= stop then None
                else
                  match tokens.(j) with
                  | { Tokenizer.kind = Tokenizer.Punct; text = "["; _ } ->
                      close (j + 1) (depth + 1)
                  | { Tokenizer.kind = Tokenizer.Punct; text = "]"; _ } ->
                      if depth = 1 then Some (j + 1)
                      else close (j + 1) (depth - 1)
                  | _ -> close (j + 1) depth
              in
              match close i 0 with Some j -> scan j | None -> None)
          | _ -> None
      in
      scan (kw_index + 1)
    in
    let name, skip =
      match name_index with
      | Some i when tokens.(i).Tokenizer.text <> "_" ->
          (tokens.(i).Tokenizer.text, [ i ])
      | _ -> (Printf.sprintf "_anon_L%d" kw.Tokenizer.line, [])
    in
    bindings :=
      {
        name;
        line = kw.Tokenizer.line;
        col = kw.Tokenizer.col;
        hot = has_hot tokens start stop;
        mutates = mutates_in tokens start stop;
        refs = refs_of tokens (kw_index + 1) stop ~skip;
      }
      :: !bindings
  in
  let segs = segments tokens in
  (* tokens before the first item (a bare expression, an indented first
     item) are declaration occurrences too *)
  decl 0 (match segs with (first, _) :: _ -> first | [] -> Array.length tokens);
  List.iter
    (fun (start, stop) ->
      let kw = tokens.(start).Tokenizer.text in
      match kw with
      | "open" | "include" -> (
          decl start stop;
          (* [open! M] lexes as Ident "open", Op "!", Ident "M" *)
          let rec first_ident i =
            if i >= stop then None
            else
              let t = tokens.(i) in
              if t.Tokenizer.kind = Tokenizer.Ident then Some t.Tokenizer.text
              else first_ident (i + 1)
          in
          match first_ident (start + 1) with
          | Some m when is_upper_start m -> opens := m :: !opens
          | _ -> ())
      | "let" | "and" | "external" -> add_binding ~kw_index:start ~start ~stop
      | "module" -> (
          (* [module type S = ...] introduces no bindings; [module M =
             Path] is an alias; [module M (...) : S = struct] becomes one
             coarse binding named M.  What precedes a struct body (a
             signature, functor parameters) and an alias's path are
             declaration occurrences; the defined name is not a use. *)
          let next i =
            if i < stop then Some tokens.(i) else None
          in
          match next (start + 1) with
          | Some { Tokenizer.kind = Tokenizer.Ident; text = "type"; _ } ->
              decl start stop ~skip:[ start + 2 ]
          | Some ({ Tokenizer.kind = Tokenizer.Ident; text = m; _ } as mt)
            when is_upper_start m ->
              (* find the [=] that binds the module body *)
              let rec find_eq i =
                if i >= stop then None
                else
                  let t = tokens.(i) in
                  if t.Tokenizer.kind = Tokenizer.Op && t.Tokenizer.text = "=" then
                    Some i
                  else find_eq (i + 1)
              in
              let body =
                match find_eq (start + 2) with
                | Some eq -> (
                    match next (eq + 1) with
                    | Some { Tokenizer.kind = Tokenizer.Ident; text = "struct"; _ }
                      ->
                        bindings :=
                          {
                            name = m;
                            line = mt.Tokenizer.line;
                            col = mt.Tokenizer.col;
                            hot = has_hot tokens start stop;
                            mutates = mutates_in tokens start stop;
                            refs = refs_of tokens (eq + 1) stop ~skip:[];
                          }
                          :: !bindings;
                        eq + 1
                    | Some { Tokenizer.kind = Tokenizer.Ident; text = p; _ }
                      when is_upper_start p ->
                        aliases := (m, p) :: !aliases;
                        stop
                    | _ -> stop)
                | None -> stop
              in
              decl start body ~skip:[ start + 1 ]
          | _ -> decl start stop)
      | "exception" -> decl start stop ~skip:[ start + 1 ]
      | _ -> decl start stop)
    segs;
  {
    opens = List.rev !opens;
    aliases = List.rev !aliases;
    bindings = List.rev !bindings;
    decls = List.concat (List.rev !decls);
  }
