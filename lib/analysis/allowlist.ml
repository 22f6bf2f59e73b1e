type entry = {
  rule : string;
  path : string;
  justification : string;
  source_line : int;
  mutable used : bool;
}

type t = { file : string; entries : entry list; errors : Finding.t list }

let empty = { file = "lint.allow"; entries = []; errors = [] }

(* Entry syntax, one per line:
     <rule-id> <path> # <justification>
   Blank lines and lines starting with '#' are comments.  The justification
   is mandatory: an exception nobody can explain is not vetted.  An entry
   exempts a whole file; one keyed on a line would break whenever a line
   is added above it, so a ':' in the path is an error.  When
   [known] is given, an entry naming a rule id outside it is rejected as an
   error right here — a typo'd rule id would otherwise allowlist nothing
   and surface only as a confusing "stale" warning. *)
let parse ?known ?(file = "lint.allow") content =
  let entries = ref [] and errors = ref [] in
  let err ln msg =
    errors :=
      Finding.make ~rule:"allowlist" ~file ~line:ln ~col:1 msg :: !errors
  in
  let parse_target ln rule target justification =
    if
      match known with
      | Some ids -> not (List.mem rule ids)
      | None -> false
    then
      err ln
        (Printf.sprintf
           "unknown rule id '%s' in entry for %s; run `bin/lint \
            --list-rules` for the valid ids"
           rule target)
    else if String.contains target ':' then
      err ln
        (Printf.sprintf
           "entry '%s %s' names a line; an entry exempts a whole file, so \
            key it on the path alone"
           rule target)
    else
    let justification = String.trim justification in
    if justification = "" then
      err ln
        (Printf.sprintf
           "entry '%s %s' has no justification comment; append '# why this \
            site is exempt'"
           rule target)
    else
      entries :=
        { rule; path = target; justification; source_line = ln; used = false }
        :: !entries
  in
  List.iteri
    (fun i raw ->
      let ln = i + 1 in
      let body, comment =
        match String.index_opt raw '#' with
        | Some j ->
            ( String.sub raw 0 j,
              String.sub raw (j + 1) (String.length raw - j - 1) )
        | None -> (raw, "")
      in
      let body = String.trim body in
      if body <> "" then
        match String.split_on_char ' ' body |> List.filter (( <> ) "") with
        | [ rule; target ] -> parse_target ln rule target comment
        | _ ->
            err ln
              (Printf.sprintf
                 "malformed entry '%s'; expected '<rule-id> <path> # \
                  justification'"
                 body))
    (String.split_on_char '\n' content);
  { file; entries = List.rev !entries; errors = List.rev !errors }

let load ?known path =
  if not (Sys.file_exists path) then { empty with file = path }
  else begin
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let content = really_input_string ic len in
    close_in ic;
    parse ?known ~file:path content
  end

let is_allowed t ~rule ~file =
  List.exists
    (fun e ->
      let hit = e.rule = rule && e.path = file in
      if hit then e.used <- true;
      hit)
    t.entries

let filter t findings =
  List.filter
    (fun (f : Finding.t) ->
      not (is_allowed t ~rule:f.Finding.rule ~file:f.Finding.file))
    findings

let stale t =
  List.filter_map
    (fun e ->
      if e.used then None
      else
        Some
          (Finding.make ~severity:Finding.Warning ~rule:"allowlist"
             ~file:t.file ~line:e.source_line ~col:1
             (Printf.sprintf "stale entry: no '%s' finding at %s — remove it"
                e.rule e.path)))
    t.entries

let entries t = t.entries
let errors t = t.errors
