(* CLI for the merged lint: syntactic (Ndnlint) + typed (Ndntype) +
   stale-suppression (S3) over the union.  `dune build @typedlint` runs
   this in _build/default after @check so the cmts are fresh.  Because
   both passes have run, S3 judges every pragma and allowlist entry —
   including "all" tokens — against the full rule table.  Findings go
   to stdout (text or JSONL), summary to stderr; exit 0 clean,
   1 findings, 2 usage. *)

let usage =
  "ndntype [--root DIR] [--format text|jsonl] [--allowlist FILE]\n\
  \        [--trace-registry FILE] [--exclude DIR]... [--typed-only]\n\
  \        [PATH]...\n\n\
   Typed (.cmt) + syntactic determinism checks, merged.  Run from\n\
   _build/default (or any root where sources and .objs live together).\n\
   PATHs default to: lib bin bench test tools (relative to --root)."

let () =
  let root = ref "." in
  let format = ref Ndnlint.Text in
  let allowlist = ref None in
  let registry = ref None in
  let no_default_suppressions = ref false in
  let typed_only = ref false in
  let excludes = ref [] in
  let paths = ref [] in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR build-tree root (default: .)");
      ( "--format",
        Arg.String
          (fun s ->
            match Ndnlint.format_of_string s with
            | Some f -> format := f
            | None ->
              prerr_endline ("ndntype: unknown format " ^ s);
              exit 2),
        "FMT output format: text (default) or jsonl" );
      ( "--allowlist",
        Arg.String (fun s -> allowlist := Some s),
        "FILE allowlist (default: tools/ndnlint/allowlist.txt if present)" );
      ( "--trace-registry",
        Arg.String (fun s -> registry := Some s),
        "FILE trace-kind registry (default: lib/sim/trace_kinds.txt if \
         present)" );
      ( "--no-default-suppressions",
        Arg.Set no_default_suppressions,
        " ignore the default allowlist and registry lookup" );
      ( "--typed-only",
        Arg.Set typed_only,
        " skip the syntactic pass and S3 (report R1/A1/A2/G1 only)" );
      ( "--exclude",
        Arg.String (fun s -> excludes := s :: !excludes),
        "DIR skip this directory (repeatable; lint fixture trees are \
         always skipped)" );
    ]
  in
  Arg.parse spec (fun p -> paths := p :: !paths) usage;
  let paths = match List.rev !paths with [] -> None | ps -> Some ps in
  let excludes =
    "test/lint_fixtures" :: "test/typedlint_fixtures" :: List.rev !excludes
  in
  let default rel current =
    match current with
    | Some _ -> current
    | None ->
      if
        (not !no_default_suppressions)
        && Sys.file_exists (Filename.concat !root rel)
      then Some rel
      else None
  in
  let allowlist_file = default "tools/ndnlint/allowlist.txt" !allowlist in
  let typed_cfg =
    Ndntype.config ?paths ?allowlist_file ~excludes ~root:!root ()
  in
  let typed =
    match Ndntype.run typed_cfg with
    | Ok r -> r
    | Error msg ->
      Printf.eprintf "ndntype: %s\n" msg;
      exit 2
  in
  let findings =
    if !typed_only then typed.Ndntype.findings
    else begin
      let syn_cfg =
        Ndnlint.config ?paths ?allowlist_file
          ?registry_file:(default "lib/sim/trace_kinds.txt" !registry)
          ~excludes ~root:!root ()
      in
      match Ndnlint.lint_full syn_cfg with
      | Error msg ->
        Printf.eprintf "ndntype: %s\n" msg;
        exit 2
      | Ok (syn_findings, inventory) ->
        let merged = syn_findings @ typed.Ndntype.findings in
        let stale =
          Ndnlint.stale_findings ~typed_files:typed.Ndntype.scanned
            ~checked_rules:(List.map (fun r -> r.Ndnlint.id) Ndnlint.all_rules)
            inventory merged
        in
        Ndnlint.sort_findings (stale @ merged)
    end
  in
  print_string (Ndnlint.render !format findings);
  let act = List.length (Ndnlint.active findings) in
  Printf.eprintf
    "ndntype: %d finding(s), %d active; %d hot function(s), %d shared \
     unit(s), %d file(s) analyzed\n"
    (List.length findings) act
    (List.length typed.Ndntype.hot_functions)
    (List.length typed.Ndntype.shared_units)
    (List.length typed.Ndntype.scanned);
  exit (Ndnlint.exit_code findings)
