(* hsfq_lint — token-level lint for the scheduler stack.

   Rules (token pass; see lib/staticlint/lexlint.ml for the lexer):

   - poly-compare        unqualified / Stdlib polymorphic [compare]
   - stdlib-minmax       bare [min]/[max] (polymorphic compare inside)
   - nan-compare         ordering comparisons against [nan]
   - obj-magic           any [Obj.magic]
   - hashtbl-find-exn    [Hashtbl.find] (raises) instead of [find_opt]
   - assert-validation   [assert] guarding anything but [false]
   - missing-mli         lib/ module without a companion interface
   - hot-path-hashtbl    hashtable tokens in the hot-path modules
   - obs-alloc           allocation-prone tokens on lib/obs record paths

   The typed analyzer (hsfq_tlint, dune alias @lint-typed) supersedes
   the last two heuristics whole-program, and alone guards module-level
   mutable globals (tl-domain-race) and [.leaf <- ...] retargets outside
   the kernel's helper (tl-leaf-retarget); this tool stays as
   the fast, no-build-needed first line.  Shared whitelist format: lines of
   [<rule> <path> <justification...>].  Exit codes: 0 clean, 1 findings
   (or stale whitelist entries without --allow-stale), 2 usage/IO. *)

module Lexlint = Hsfq_staticlint.Lexlint
module Whitelist = Hsfq_staticlint.Whitelist

let has_suffix s suf =
  let ls = String.length s and lf = String.length suf in
  ls >= lf && String.equal (String.sub s (ls - lf) lf) suf

let rec walk acc path =
  if Sys.is_directory path then begin
    let entries = Sys.readdir path in
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc e ->
        if
          String.length e = 0
          || Char.equal e.[0] '.'
          || String.equal e "_build"
        then acc
        else walk acc (Filename.concat path e))
      acc entries
  end
  else if has_suffix path ".ml" || has_suffix path ".mli" then path :: acc
  else acc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let usage = "hsfq_lint [--whitelist FILE] [--allow-stale] [DIR...]"

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let () =
  let whitelist_file = ref "" in
  let allow_stale = ref false in
  let dirs = ref [] in
  let spec =
    [
      ( "--whitelist",
        Arg.Set_string whitelist_file,
        "FILE suppressions: lines of <rule> <path> <justification...>" );
      ( "--allow-stale",
        Arg.Set allow_stale,
        " don't fail on whitelist entries that matched nothing" );
    ]
  in
  Arg.parse spec (fun d -> dirs := d :: !dirs) usage;
  let dirs =
    match List.rev !dirs with [] -> Lexlint.default_dirs | ds -> ds
  in
  List.iter
    (fun d ->
      if not (Sys.file_exists d) then die "hsfq_lint: no such directory: %s" d)
    dirs;
  let files = List.concat_map (fun d -> List.rev (walk [] d)) dirs in
  let findings =
    List.concat_map
      (fun file ->
        let mli =
          match Lexlint.missing_mli ~file with Some f -> [ f ] | None -> []
        in
        mli @ Lexlint.check_tokens ~file (read_file file))
      files
  in
  let wl =
    if String.equal !whitelist_file "" then Ok Whitelist.empty
    else Whitelist.load !whitelist_file
  in
  match wl with
  | Error msg -> die "hsfq_lint: %s" msg
  | Ok wl ->
    exit
      (Whitelist.report ~tool:"hsfq_lint" ~allow_stale:!allow_stale
         ~scanned:(Printf.sprintf "%d file(s)" (List.length files))
         wl findings)
