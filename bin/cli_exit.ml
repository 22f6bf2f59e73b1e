(* One exit-status convention for the cmdliner binaries (experiments,
   lcakp_cli, loadgen, trace_tool), the one bench_compare, obs_gate and
   lint already keep: 0 is success and 2 a bad invocation or an unusable
   input file.  cmdliner's own code for a command-line error is 124;
   [exit] rewrites it to 2, and [exits] documents the codes under --help's
   EXIT STATUS. *)

open Cmdliner

let error = 2

(* [exits extra] lists 0, the binary's own [extra] codes, 2 and cmdliner's
   internal-error code 125, for [Cmd.info ~exits]. *)
let exits extra =
  (Cmd.Exit.info Cmd.Exit.ok ~doc:"on success." :: extra)
  @ [
      Cmd.Exit.info error ~doc:"on a command-line error or an unusable input file.";
      Cmd.Exit.info Cmd.Exit.internal_error ~doc:"on an unexpected internal error (a bug).";
    ]

(* [exit code] ends the process with the code [Cmd.eval] or [Cmd.eval']
   returned, a command-line error mapped to 2. *)
let exit code = Stdlib.exit (if code = Cmd.Exit.cli_error then error else code)

(* The converter of every output-file option: the file's directory must
   exist.  A typo in it is then a command-line error, reported with exit 2
   before the run starts, instead of a [Sys_error] when the finished run
   writes its file. *)
let output_path =
  let parse path =
    let dir = Filename.dirname path in
    if Sys.file_exists dir && Sys.is_directory dir then Ok path
    else Error (`Msg (Printf.sprintf "cannot write %S: %S is not a directory" path dir))
  in
  Arg.conv ~docv:"FILE" (parse, Format.pp_print_string)
