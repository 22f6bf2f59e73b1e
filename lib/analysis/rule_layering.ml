let id = "layering"

(* The dependency DAG of the reproduction, as layers:
     lk_util -> lk_stats -> lk_knapsack -> {lk_benchkit, lk_obs}
              -> lk_oracle -> lk_parallel
              -> {lk_repro, lk_workloads} -> {lk_lca, lk_lcakp}
              -> {lk_baselines, lk_hardness, lk_ext}
   Each library may depend only on the listed lk_* libraries; external
   non-lk dependencies are unconstrained here.  In particular the LCA
   layers (lk_lcakp, lk_lca) must not see lk_workloads: an LCA that can
   name its workload generator can cheat the oracle model.  lk_parallel
   sits just above the oracle layer, so every repetition harness above it
   may fan out; the trial engine itself needs only lk_util and lk_obs.
   lk_obs sits below lk_oracle so the oracles can emit trace events; it
   leans on lk_benchkit only for the deterministic JSON printer.
   lk_profile is a sibling consumer of lk_obs (trace analytics and
   exporters): it may read event streams but must not see oracles or the
   engine, so profiles stay pure functions of a recorded stream.
   lk_serve (the query-serving tier) sits above the LCA layer — it keeps
   one prepared lk_lcakp state per instance digest and fans answers out
   through lk_parallel — but, like the LCA layers, must not see
   lk_workloads: servers serve whatever instances they are handed.
   lk_counting (the #Knapsack pillar) sits beside lk_parallel at the
   oracle layer: its ROBP is built through lk_oracle point queries, but
   the counters themselves are straight-line kernels that never fan out,
   never see the LCA, and never see a workload generator. *)
let foundation = [ "lk_util"; "lk_stats"; "lk_knapsack" ]
let obs_side = foundation @ [ "lk_benchkit"; "lk_obs" ]
let oracle_side = obs_side @ [ "lk_oracle" ]
let parallel_side = oracle_side @ [ "lk_parallel" ]
let lca_side = parallel_side @ [ "lk_repro" ]
let top = lca_side @ [ "lk_lca"; "lk_lcakp"; "lk_workloads" ]

let allowed : (string * string list) list =
  [ ("lk_util", []);
    (* the linter leans on lk_benchkit only for the deterministic JSON
       printer behind the SARIF export *)
    ("lk_analysis", [ "lk_util"; "lk_benchkit" ]);
    ("lk_benchkit", [ "lk_util" ]);
    ("lk_obs", [ "lk_util"; "lk_benchkit" ]);
    ("lk_stats", [ "lk_util" ]);
    ("lk_knapsack", [ "lk_util"; "lk_stats" ]);
    ("lk_profile", obs_side);
    ("lk_oracle", obs_side);
    ("lk_workloads", foundation);
    ("lk_parallel", oracle_side);
    ("lk_counting", oracle_side);
    ("lk_repro", parallel_side);
    ("lk_lca", lca_side);
    ("lk_lcakp", lca_side);
    ("lk_serve", lca_side @ [ "lk_lca"; "lk_lcakp" ]);
    ("lk_baselines", top);
    ("lk_hardness", top);
    ("lk_ext", top) ]

(* --- minimal s-expression reader, just enough for dune files ------------ *)

type sexp = Atom of string | List of sexp list

let parse_sexps content =
  let n = String.length content in
  let pos = ref 0 in
  let rec skip_blank () =
    if !pos < n then
      match content.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip_blank ()
      | ';' ->
          while !pos < n && content.[!pos] <> '\n' do
            incr pos
          done;
          skip_blank ()
      | _ -> ()
  in
  let atom () =
    let start = !pos in
    (if content.[!pos] = '"' then begin
       incr pos;
       let continue = ref true in
       while !continue && !pos < n do
         (match content.[!pos] with
         | '\\' -> incr pos
         | '"' -> continue := false
         | _ -> ());
         incr pos
       done
     end
     else
       let stop = ref false in
       while (not !stop) && !pos < n do
         match content.[!pos] with
         | ' ' | '\t' | '\n' | '\r' | '(' | ')' | ';' -> stop := true
         | _ -> incr pos
       done);
    Atom (String.sub content start (!pos - start))
  in
  let rec expr () =
    skip_blank ();
    if !pos >= n then None
    else if content.[!pos] = '(' then begin
      incr pos;
      let items = ref [] in
      let rec go () =
        skip_blank ();
        if !pos >= n then ()
        else if content.[!pos] = ')' then incr pos
        else begin
          (match expr () with Some e -> items := e :: !items | None -> ());
          go ()
        end
      in
      go ();
      Some (List (List.rev !items))
    end
    else if content.[!pos] = ')' then begin
      incr pos;
      expr ()
    end
    else Some (atom ())
  in
  let out = ref [] in
  let continue = ref true in
  while !continue do
    match expr () with
    | Some e -> out := e :: !out
    | None -> continue := false
  done;
  List.rev !out

let field name = function
  | List (Atom head :: rest) when head = name -> Some rest
  | _ -> None

let atoms l =
  List.filter_map (function Atom a -> Some a | List _ -> None) l

let is_lk name =
  String.length name >= 3 && String.sub name 0 3 = "lk_"

(* --- the rule ----------------------------------------------------------- *)

let check_dune ~path ~content =
  parse_sexps content
  |> List.concat_map (fun stanza ->
         match field "library" stanza with
         | None -> []
         | Some fields ->
             let get f = List.find_map (field f) fields in
             let name =
               match get "name" with Some (Atom n :: _) -> Some n | _ -> None
             in
             let libraries =
               match get "libraries" with Some l -> atoms l | None -> []
             in
             (match name with
             | None ->
                 [ Finding.make ~rule:id ~file:path ~line:1 ~col:1
                     "library stanza without a (name ...)" ]
             | Some name -> (
                 match List.assoc_opt name allowed with
                 | None ->
                     [ Finding.make ~severity:Finding.Warning ~rule:id
                         ~file:path ~line:1 ~col:1
                         (Printf.sprintf
                            "library '%s' is not in the layering table; add \
                             it to Rule_layering.allowed"
                            name) ]
                 | Some deps ->
                     libraries
                     |> List.filter (fun d -> is_lk d && not (List.mem d deps))
                     |> List.map (fun d ->
                            Finding.make ~rule:id ~file:path ~line:1 ~col:1
                              (Printf.sprintf
                                 "illegal dependency %s -> %s: the layering \
                                  DAG (lk_util -> lk_stats -> lk_knapsack \
                                  -> {lk_benchkit, lk_obs} -> lk_oracle -> \
                                  lk_parallel -> {lk_repro, lk_workloads} \
                                  -> {lk_lca, lk_lcakp} -> top) forbids it"
                                 name d)))))

let check_files files =
  List.concat_map
    (fun (path, content) -> check_dune ~path ~content)
    files

(* [library_name ~content] — the (name ...) of the first library stanza
   in a dune file, for the engine's library -> directory map. *)
let library_name ~content =
  parse_sexps content
  |> List.find_map (fun stanza ->
         match field "library" stanza with
         | None -> None
         | Some fields -> (
             match List.find_map (field "name") fields with
             | Some (Atom n :: _) -> Some n
             | _ -> None))
