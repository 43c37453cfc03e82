(** iSMOQE, the terminal edition.

    The demo paper's GUI (its Figs. 2, 4(b), 5, 6) displays schema graphs,
    automata, evaluation traces with per-node colors, the TAX index and
    query results as text or trees.  This module renders the same
    information for terminals: ASCII art and ANSI colors, plus Graphviz
    DOT output for the automata.  Results as text are the engine's own
    answer fragments ({!Engine.outcome}'s [answer_xml]), one per line. *)

val schema_graph : Smoqe_xml.Dtd.t -> string
(** Indented schema graph with content models — the view-specification
    panel (Fig. 2). *)

val view_specification : Smoqe_security.Derive.view -> string
(** Policy, sigma expressions and view DTD side by side (Fig. 3). *)

val mfa_ascii : Smoqe_automata.Mfa.t -> string
(** Adjacency rendering of an MFA (Fig. 4). *)

val mfa_dot : Smoqe_automata.Mfa.t -> string
(** Graphviz DOT for the same (pipe into [dot -Tsvg]). *)

val evaluation_trace :
  ?color:bool -> Smoqe_hype.Trace.t -> Smoqe_xml.Tree.t -> string
(** Per-node colored trace of a HyPE run: visited, in Cans, answer, or
    which optimization pruned it (Fig. 5 and the output visualizer's
    node-marking mode).  With [color] (default [true] when the output is a
    tty — pass explicitly for files), marks are ANSI-colored. *)

val tax_view : Smoqe_tax.Tax.t -> Smoqe_xml.Tree.t -> string
(** Per-node descendant-type sets (Fig. 6). *)

val answers_tree : Smoqe_xml.Tree.t -> int list -> string
(** The tree mode: the document skeleton with answer nodes marked. *)

val stats_table : Smoqe_hype.Stats.t -> string
