(* Token-level source lint for the scheduler stack (the fast first-line
   pass; the whole-program typed analyzer in Typedlint supersedes the
   heuristics here wherever .cmt artifacts are available).

   See bin/hsfq_lint.ml for the user-facing rule list and doc/
   STATIC_ANALYSIS.md for how the two linters divide the work. *)

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || Char.equal c '_'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || Char.equal c '\''

let is_digit c = c >= '0' && c <= '9'

(* A tiny OCaml surface lexer: emits identifier-ish tokens (with
   dot-qualified paths glued into one token, so [Stdlib.min] and
   [h.audit] each arrive whole) together with the run of symbolic
   characters seen since the previous token.  Comments (nested, with
   embedded string and quoted-string literals), ["..."] strings,
   [{id|...|id}] quoted strings and character literals are skipped. *)
let scan src ~f =
  let n = String.length src in
  let line = ref 1 in
  let bol = ref 0 in (* index just after the last newline *)
  let i = ref 0 in
  let op = Buffer.create 16 in
  let peek k = if !i + k < n then src.[!i + k] else '\000' in
  let advance () =
    if Char.equal src.[!i] '\n' then begin
      incr line;
      bol := !i + 1
    end;
    incr i
  in
  let rec skip_string () =
    (* positioned just after the opening quote *)
    if !i < n then
      match src.[!i] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        if !i < n then advance ();
        skip_string ()
      | _ ->
        advance ();
        skip_string ()
  in
  let skip_quoted_string () =
    (* at '{': consume a {id|...|id} literal if one starts here *)
    let j = ref (!i + 1) in
    while
      !j < n && (Char.equal src.[!j] '_' || (src.[!j] >= 'a' && src.[!j] <= 'z'))
    do
      incr j
    done;
    if !j < n && Char.equal src.[!j] '|' then begin
      let id = String.sub src (!i + 1) (!j - !i - 1) in
      let close = "|" ^ id ^ "}" in
      let cn = String.length close in
      while !i <= !j do
        advance ()
      done;
      let rec find () =
        if !i >= n then ()
        else if !i + cn <= n && String.equal (String.sub src !i cn) close then
          for _ = 1 to cn do
            advance ()
          done
        else begin
          advance ();
          find ()
        end
      in
      find ();
      true
    end
    else false
  in
  let rec skip_comment depth =
    if !i >= n || depth = 0 then ()
    else if Char.equal src.[!i] '(' && Char.equal (peek 1) '*' then begin
      advance ();
      advance ();
      skip_comment (depth + 1)
    end
    else if Char.equal src.[!i] '*' && Char.equal (peek 1) ')' then begin
      advance ();
      advance ();
      skip_comment (depth - 1)
    end
    else if Char.equal src.[!i] '"' then begin
      advance ();
      skip_string ();
      skip_comment depth
    end
    else if Char.equal src.[!i] '{' && skip_quoted_string () then
      (* A {id|...|id} literal inside a comment: OCaml's lexer skips it
         whole, so a [* )] inside one must not close the comment. *)
      skip_comment depth
    else begin
      advance ();
      skip_comment depth
    end
  in
  while !i < n do
    let c = src.[!i] in
    if Char.equal c '(' && Char.equal (peek 1) '*' then begin
      advance ();
      advance ();
      skip_comment 1
    end
    else if Char.equal c '"' then begin
      advance ();
      skip_string ()
    end
    else if Char.equal c '{' && skip_quoted_string () then ()
    else if Char.equal c '\'' then
      if Char.equal (peek 1) '\\' then begin
        (* escaped character literal: skip to the closing quote *)
        advance ();
        advance ();
        while !i < n && not (Char.equal src.[!i] '\'') do
          advance ()
        done;
        if !i < n then advance ()
      end
      else if Char.equal (peek 2) '\'' && not (Char.equal (peek 1) '\'') then begin
        advance ();
        advance ();
        advance ()
      end
      else (* a type variable's quote *)
        advance ()
    else if is_ident_start c then begin
      let start = !i in
      let tline = !line in
      let tcol = start - !bol in
      let continue = ref true in
      while !continue do
        while !i < n && is_ident_char src.[!i] do
          incr i
        done;
        if !i + 1 < n && Char.equal src.[!i] '.' && is_ident_start src.[!i + 1]
        then incr i
        else continue := false
      done;
      f ~line:tline ~col:tcol ~op:(Buffer.contents op)
        (String.sub src start (!i - start));
      Buffer.clear op
    end
    else if is_digit c then begin
      let start = !i in
      let tline = !line in
      let tcol = start - !bol in
      while !i < n && (is_ident_char src.[!i] || Char.equal src.[!i] '.') do
        incr i
      done;
      f ~line:tline ~col:tcol ~op:(Buffer.contents op)
        (String.sub src start (!i - start));
      Buffer.clear op
    end
    else begin
      if
        not
          (Char.equal c ' ' || Char.equal c '\t' || Char.equal c '\n'
         || Char.equal c '\r')
      then Buffer.add_char op c;
      advance ()
    end
  done

let tokens src =
  let acc = ref [] in
  scan src ~f:(fun ~line ~col ~op tok -> acc := (line, col, op, tok) :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Rules over the token stream. *)

let has_suffix s suf =
  let ls = String.length s and lf = String.length suf in
  ls >= lf && String.equal (String.sub s (ls - lf) lf) suf

let has_prefix s pre =
  let ls = String.length s and lp = String.length pre in
  ls >= lp && String.equal (String.sub s 0 lp) pre

(* Keywords that introduce a binding: an identifier right after one is
   being *defined*, not used, so [let compare = Int.compare] and
   [val min : span -> span -> span] are fine. *)
let defn_head = function
  | "let" | "and" | "val" | "external" | "method" | "type" -> true
  | _ -> false

let comparison_op = function
  | "=" | "<>" | "==" | "!=" | "<" | ">" | "<=" | ">=" -> true
  | _ -> false

(* Modules on the per-scheduling-decision path: no hashing allowed. *)
let hot_path_modules =
  [
    "lib/core/sfq.ml";
    "lib/core/hierarchy.ml";
    "lib/sched/keyed_heap.ml";
    "lib/engine/event_queue.ml";
  ]

(* lib/obs record paths must stay allocation-free: a tracepoint fires on
   every scheduling decision, so closures, lists and formatting there
   turn "one branch when disabled" into per-event garbage.  Exporters
   (text_dump, chrome_trace) run after the fact and are whitelisted. *)
let obs_record_scope file =
  has_prefix file "lib/obs/" && has_suffix file ".ml"

let check_tokens ~file src =
  let findings = ref [] in
  let flag rule line msg =
    findings := Finding.make ~rule ~file ~line ~msg :: !findings
  in
  let hot = List.exists (String.equal file) hot_path_modules in
  let obs_path = obs_record_scope file in
  let prev = ref "" in
  let prev2 = ref "" in
  let pending_assert = ref (-1) in
  let handle ~line ~col:_ ~op tok =
    (match !pending_assert with
    | -1 -> ()
    | aline ->
      if not (String.equal tok "false") then
        flag "assert-validation" aline
          "assert guards more than an unreachable branch; use invalid_arg \
           for input validation (asserts vanish under -noassert)";
      pending_assert := -1);
    (* [~min:] / [?max:] label arguments are names, not the Stdlib
       functions. *)
    let labeled = has_suffix op "~" || has_suffix op "?" in
    (if String.equal !prev "nan" && comparison_op op then
       flag "nan-compare" line
         "comparison against nan is vacuous; use Float.is_nan");
    (match tok with
    | "assert" -> pending_assert := line
    | "min" | "max" when not (defn_head !prev || labeled) ->
      flag "stdlib-minmax" line
        (Printf.sprintf
           "bare polymorphic [%s]; use Int.%s / Float.%s / Time.%s" tok tok tok
           tok)
    | "compare" when not (defn_head !prev || labeled) ->
      flag "poly-compare" line
        "unqualified polymorphic [compare]; use Int.compare / Float.compare \
         / String.compare"
    | "Stdlib.min" | "Stdlib.max" ->
      flag "stdlib-minmax" line
        (Printf.sprintf "[%s] is polymorphic compare in disguise; qualify \
                         with the element type (Int, Float, Time)" tok)
    | "Stdlib.compare" ->
      flag "poly-compare" line
        "[Stdlib.compare] is polymorphic; use the element type's compare"
    | "nan" when comparison_op op && not (defn_head !prev2) ->
      flag "nan-compare" line
        "comparison against nan is vacuous; use Float.is_nan"
    | _ ->
      if String.equal tok "Obj.magic" || has_suffix tok ".Obj.magic" then
        flag "obj-magic" line "Obj.magic defeats the type system"
      else if String.equal tok "Hashtbl.find" || has_suffix tok ".Hashtbl.find"
      then
        flag "hashtbl-find-exn" line
          "Hashtbl.find raises Not_found; use Hashtbl.find_opt";
      if hot && (String.equal tok "Hashtbl" || has_prefix tok "Hashtbl.") then
        flag "hot-path-hashtbl" line
          "hashtable in a hot-path module; scheduling decisions must stay \
           zero-hash — use a dense array keyed by id (whitelist only \
           genuinely cold tables, with a justification)";
      if
        obs_path
        && (String.equal tok "fun" || String.equal tok "function"
           || String.equal tok "List" || has_prefix tok "List."
           || has_prefix tok "Printf" || has_prefix tok "Format"
           || has_prefix tok "Buffer" || String.equal tok "String.concat")
      then
        flag "obs-alloc" line
          (Printf.sprintf
             "[%s] on a tracepoint record path; lib/obs must not allocate \
              per event — use named top-level functions, while loops and \
              preallocated arrays (whitelist only the exporters)" tok));
    prev2 := !prev;
    prev := tok
  in
  scan src ~f:handle;
  (match !pending_assert with
  | -1 -> ()
  | aline ->
    flag "assert-validation" aline
      "assert guards more than an unreachable branch; use invalid_arg for \
       input validation (asserts vanish under -noassert)");
  Finding.sort !findings

let missing_mli ~file =
  let in_lib = has_prefix file "lib/" in
  if in_lib && has_suffix file ".ml" && not (Sys.file_exists (file ^ "i")) then
    Some
      (Finding.make ~rule:"missing-mli" ~file ~line:1
         ~msg:"library module without an interface; add a companion .mli")
  else None

let default_dirs = [ "lib"; "bin"; "examples"; "test"; "bench" ]
