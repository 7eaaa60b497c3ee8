(* Small shared helpers for the test suites. *)

let contains (s : string) (needle : string) : bool =
  let n = String.length needle and m = String.length s in
  if n = 0 then true
  else begin
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  end

(** Parse a kernel and fail the test on parse errors. *)
let kernel_of_source (src : string) : Cuda.Ast.program * Cuda.Ast.fn =
  try Cuda.Parser.parse_kernel src
  with Cuda.Parser.Error (msg, loc) ->
    Alcotest.failf "parse error at %a: %s" Cuda.Loc.pp loc msg

(** Build a [Kernel_info.t] quickly for fusion tests. *)
let info_of_source ?(block = (256, 1, 1)) ?(grid = 8) ?(smem_dynamic = 0)
    ?(regs = 24) ?(tunability = Hfuse_core.Kernel_info.Tunable { multiple_of = 32 })
    (src : string) : Hfuse_core.Kernel_info.t =
  let prog, fn = kernel_of_source src in
  { Hfuse_core.Kernel_info.fn; prog; block; grid; smem_dynamic; regs; tunability }

let qcheck_cases (tests : QCheck.Test.t list) : unit Alcotest.test_case list =
  List.map (QCheck_alcotest.to_alcotest ~long:false) tests

(** The settings a one-shot run resolves from the test environment
    (e.g. [HFUSE_CACHE=0], or a pre-warmed [HFUSE_CACHE_DIR]). *)
let env_settings () = Hfuse_profiler.Settings.resolve ()

(** [rm -rf p]. *)
let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

(** This test process's own directory under the system temp dir, made
    at start and removed with everything in it at exit: every cache
    root and socket directory the suites make lives here, so no run
    leaves one behind. *)
let tmp_root =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hfuse-test-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o700;
  at_exit (fun () -> try rm_rf dir with Sys_error _ -> ());
  dir

(** [name] under {!tmp_root}. *)
let tmp_path name = Filename.concat tmp_root name
