package check

// catalog is the rule registry, in ID order. IDs are stable and
// documented in DESIGN.md §6.4: tests, CI gates, and downstream tooling
// key on them, so a rule may be retired but its ID never reused.
var catalog = []Rule{
	{
		ID: "ERC-001", Title: "dangling net", Severity: Warning, Class: ClassERC,
		Doc: "A net with no driver, sinks, or ports is editing debris; it distorts net statistics and wastes router work.",
		run: ercDanglingNet,
	},
	{
		ID: "ERC-002", Title: "undriven net", Severity: Error, Class: ClassERC,
		Doc: "A net with sinks but no driver makes every downstream timing arc meaningless (Tempus check_timing's no_driving_cell).",
		run: ercUndrivenNet,
	},
	{
		ID: "ERC-003", Title: "multi-driven net", Severity: Error, Class: ClassERC,
		Doc: "A net driven by both an instance pin and an input port is electrical contention; one driver per net is the netlist invariant every engine assumes.",
		run: ercMultiDrivenNet,
	},
	{
		ID: "ERC-004", Title: "floating input pin", Severity: Warning, Class: ClassERC,
		Doc: "An unconnected signal input propagates unknowns through the cone below it; the generators and ECO edits must never leave one behind.",
		run: ercFloatingInput,
	},
	{
		ID: "ERC-005", Title: "unconnected clock pin", Severity: Error, Class: ClassERC,
		Doc: "After CTS every sequential clock pin must be on the tree; a floating one silently drops the cell from clock power and skew accounting (Table VIII).",
		run: ercUnconnectedClock,
	},
	{
		ID: "ERC-006", Title: "unknown or invalid master", Severity: Error, Class: ClassERC,
		Doc: "Every instance needs a structurally valid master from the flow's libraries; a foreign-track master breaks the per-tier NLDM lookup of the hetero flow.",
		run: ercMaster,
	},
	{
		ID: "ERC-007", Title: "pin-binding integrity", Severity: Error, Class: ClassERC,
		Doc: "Instance-side pin bindings and net-side driver/sink lists must mirror each other exactly, or incremental edits corrupt connectivity unnoticed. Reported from netlist.Bindings, the same O(pins) walk behind netlist.Validate and ERC-002/003.",
		run: ercBinding,
	},
	{
		ID: "ERC-008", Title: "combinational loop", Severity: Error, Class: ClassERC,
		Doc: "The STA engine levelizes the combinational graph; a loop makes static timing undefined (check_timing's generated_clocks/loops).",
		run: ercCombLoop,
	},

	{
		ID: "DRC-001", Title: "cell overlap", Severity: Error, Class: ClassDRC,
		Doc: "Two standard cells sharing row area is an illegal layout; overlapping cells also double-count utilization and distort RC estimates.",
		run: drcOverlap,
	},
	{
		ID: "DRC-002", Title: "off-row placement", Severity: Error, Class: ClassDRC,
		Doc: "Cells must sit on their tier's row grid — 9-track rows on top, 12-track on bottom for hetero designs (Fig. 3c's visible row mismatch).",
		run: drcOffRow,
	},
	{
		ID: "DRC-003", Title: "out-of-bounds placement", Severity: Error, Class: ClassDRC,
		Doc: "Standard cells must stay inside the core region and macros inside the left-edge macro block column; an escaped cell breaks the footprint/area accounting of Table VI.",
		run: drcBounds,
	},
	{
		ID: "DRC-004", Title: "utilization sanity", Severity: Error, Class: ClassDRC,
		Doc: "Per-tier cell area beyond the core's capacity cannot legalize; the repair loops' density guards must keep every die under 100 %.",
		run: drcUtilization,
	},

	{
		ID: "TDR-001", Title: "tier assignment", Severity: Error, Class: ClassTDR,
		Doc: "Every cell's tier must exist in the implementation: only the bottom die for 2-D, the two-die stack for M3D/hetero.",
		run: tdrTierRange,
	},
	{
		ID: "TDR-002", Title: "MIV accounting", Severity: Error, Class: ClassTDR,
		Doc: "The router's MIV count must agree with each net's actual tier crossing, and the signoff PPAC MIV total with the final netlist — the Table VI/VII MIV rows.",
		run: tdrMIVAccounting,
	},
	{
		ID: "TDR-003", Title: "tier/library compatibility", Severity: Error, Class: ClassTDR,
		Doc: "After the hetero retarget each die hosts exactly one library (12-track bottom, 9-track top); a mixed-track die voids the per-tier timing and leakage models (Tables II/III).",
		run: tdrTierLibs,
	},

	{
		ID: "ENG-001", Title: "journal coverage", Severity: Error, Class: ClassENG,
		Doc: "The change journal must cover every instance and net with index-aligned IDs, or the incremental timer and RC cache silently miss invalidations.",
		run: engJournal,
	},
	{
		ID: "ENG-002", Title: "levelization consistency", Severity: Error, Class: ClassENG,
		Doc: "The STA engine's levelization order must exist, cover every instance exactly once, and be topological — every data arc into a combinational cell points forward — or the timer's sweeps read arrivals and required times before they are final.",
		run: engLevelization,
	},
	{
		ID: "ENG-003", Title: "revision monotonicity", Severity: Error, Class: ClassENG,
		Doc: "Across stage boundaries the topology revision and object counts only grow; a decrease means an engine is reading a stale design view.",
		run: engMonotonic,
	},
}
