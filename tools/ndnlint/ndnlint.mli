(** [ndnlint] — static determinism & invariant checks for the simulator.

    A standalone analysis on [compiler-libs]: every [.ml]/[.mli] under
    the configured paths is parsed ([Parse.implementation] /
    [Parse.interface]) and walked with an {!Ast_iterator}, producing
    typed, severity-ranked {!finding}s with stable rule IDs and
    [file:line:col] spans.  No type information is consulted, so every
    syntactic rule runs on a single file in isolation; the few
    heuristics are documented in DESIGN.md §11 and escape hatches exist
    at two scopes:

    - a per-line pragma [(* ndnlint: allow RULE[, RULE...] -- why *)]
      (placed on the offending line, or alone on the line above it; one
      comment may list several rules, and a line may carry several
      pragmas);
    - a central path-scoped allowlist file whose entries {e must} carry
      a justification ([RULE PATH -- why]).

    Rule families: [D*] determinism (the byte-identity guarantee behind
    every [--jobs N] experiment), [T*] trace-kind registry hygiene,
    [S*] structure/suppression hygiene, [E0] parse failure.  The typed
    rules ([R1], [A1], [A2], [G1]) are listed here for the shared rule
    table and suppression machinery but are {e produced} by the
    [Ndntype] pass over [.cmt] files (DESIGN.md §15), not by {!lint}. *)

type severity = Error | Warning

type status =
  | Active  (** A real violation: makes {!exit_code} non-zero. *)
  | Allowlisted of string  (** Suppressed by the allowlist; carries the
                               entry's justification. *)
  | Pragma_suppressed  (** Suppressed by an in-source pragma. *)

type finding = {
  rule : string;  (** Stable rule ID, e.g. ["D1"]. *)
  severity : severity;
  file : string;  (** Path relative to the configured root. *)
  line : int;  (** 1-based. *)
  col : int;  (** 0-based, as in compiler messages. *)
  message : string;
  status : status;
}

type rule_info = {
  id : string;
  severity : severity;
  synopsis : string;
  typed : bool;
      (** [true] for rules computed by the [Ndntype] cmt pass; the
          syntactic scanner never emits them. *)
}

val all_rules : rule_info list
(** The full rule table, in ID order.  Mirrored (with rationale) in
    DESIGN.md §11 (syntactic) and §15 (typed). *)

val severity_of_rule : string -> severity
(** Severity from the rule table; [Error] for unknown IDs. *)

(** {1 Path-scoped severities} *)

type scoped_action =
  | Skip  (** Drop the finding entirely under the path. *)
  | Demote  (** Downgrade the finding to [Warning] under the path. *)

type scoped_severity = {
  s_rule : string;
  s_path : string;  (** Path prefix, relative to the root. *)
  s_action : scoped_action;
}

val default_scoped : scoped_severity list
(** D3 (wall-clock) skipped under [bench/] and [tools/]: harnesses and
    developer tooling legitimately measure real time. *)

type config = {
  root : string;  (** Directory paths below are resolved against. *)
  paths : string list;  (** Files or directories, relative to [root]. *)
  allowlist_file : string option;  (** Relative to [root]. *)
  registry_file : string option;
      (** Trace-kind registry (one wire name per line); [None] disables
          the [T*] rules. *)
  excludes : string list;  (** Relative dir prefixes never scanned. *)
  key_modules : string list;
      (** Modules whose values are treated as abstract keys by [D6]. *)
  scoped : scoped_severity list;  (** First matching entry wins. *)
}

val config :
  ?paths:string list ->
  ?allowlist_file:string ->
  ?registry_file:string ->
  ?excludes:string list ->
  ?key_modules:string list ->
  ?scoped:scoped_severity list ->
  root:string ->
  unit ->
  config
(** Defaults: [paths = ["lib"; "bin"; "bench"; "test"; "tools"]],
    [excludes = ["test/lint_fixtures"; "test/typedlint_fixtures"]],
    [key_modules = ["Name"; "Interest"; "Data"; "Packet"]],
    [scoped = default_scoped], no allowlist, no registry. *)

(** {1 Suppression machinery}

    Shared with the [Ndntype] typed pass, so both stages resolve
    pragmas and allowlist entries identically. *)

type pragma_site = {
  ps_line : int;  (** Line the pragma comment sits on. *)
  ps_rules : string list;  (** Rule tokens, ["all"] included. *)
  ps_covers : int list;  (** Lines the pragma suppresses on. *)
}

type pragmas

val pragmas_of_source : string -> pragmas
(** Scan a source buffer for [ndnlint: allow] pragmas.  A pragma alone
    on its line also covers the next line. *)

val pragma_suppresses : pragmas -> line:int -> rule:string -> bool

val pragma_sites : pragmas -> pragma_site list
(** Every pragma found, in source order — the S3 staleness universe. *)

type allow_entry = {
  a_rule : string;
  a_path : string;  (** Exact file or directory prefix. *)
  a_just : string;
  a_line : int;  (** Line of the entry in the allowlist file. *)
}

val parse_allowlist :
  file:string -> string -> (allow_entry list, string) result
(** [file] only labels error messages.  Rejects entries without a
    [-- justification]. *)

val allowlist_lookup :
  allow_entry list -> rule:string -> file:string -> allow_entry option
(** First matching entry, if any. *)

(** {1 Running the linter} *)

type inventory = {
  inv_pragmas : (string * pragma_site) list;
      (** (source file, site) for every pragma in the scanned tree. *)
  inv_allows : allow_entry list;
  inv_allow_file : string option;
}
(** Every suppression the scan encountered, matched or not — the input
    to {!stale_findings}. *)

val empty_inventory : inventory

val lint_full : config -> (finding list * inventory, string) result
(** Scan the tree.  [Ok (findings, inventory)] lists {e every} finding —
    active, allowlisted and pragma-suppressed alike — sorted by
    (file, line, col, rule), plus the suppression inventory.
    [Error msg] reports a configuration problem (unreadable root,
    malformed allowlist or registry); a source file that fails to parse
    is not an error but an [E0] finding. *)

val lint : config -> (finding list, string) result
(** {!lint_full} without the inventory. *)

val stale_findings :
  ?typed_files:string list ->
  checked_rules:string list ->
  inventory ->
  finding list ->
  finding list
(** S3: pragmas and allowlist entries that suppressed nothing in
    [findings] (which should be the {e merged} results of every pass
    that ran).  Only suppressions naming a rule in [checked_rules] are
    judged — a syntactic-only run must not condemn a typed-rule pragma
    it cannot match; ["all"] tokens are judged only when
    [checked_rules] spans the whole rule table.  Sites that also name
    [S3] are exempt.  [typed_files] (default: every file) lists the
    sources whose cmt the typed pass loaded; a typed-rule or ["all"]
    pragma in any other file — or an allowlist entry whose path covers
    none of them — is not judged, since its finding could not have been
    computed.  Sorted like {!lint_full}'s findings. *)

val sort_findings : finding list -> finding list
(** Sort by (file, line, col, rule) — the order {!lint_full} returns
    and the renderers expect; use after merging passes. *)

val active : finding list -> finding list
(** Only the findings that should fail a build. *)

val exit_code : finding list -> int
(** [0] when {!active} is empty, [1] otherwise. *)

(** {1 Rendering} *)

type format = Text | Jsonl

val format_of_string : string -> format option

val finding_to_text : finding -> string
(** [file:line:col: severity [RULE] message] (no newline). *)

val finding_to_jsonl : finding -> string
(** One JSON object per finding (no newline), schema:
    [{"rule":…,"severity":…,"file":…,"line":…,"col":…,"message":…,
      "status":"active"|"allowlisted"|"pragma","justification":…?}]. *)

val render : format -> finding list -> string
(** All findings, one per line, each line newline-terminated. *)
