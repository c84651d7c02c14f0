"""The rule programs the benchmark runs.

They live here, not under ``src/``, so that a later change cannot move
a number by editing the load.
"""

#: Departments in WINDOW and DIPS, and in KERNEL.
WINDOW_DEPTS = 8
KERNEL_DEPTS = 20

#: ``emp`` facts qualify for ``note-emp`` above this salary.
WINDOW_SALARY_FLOOR = 1500

#: The served program: a per-department roll-up through an S-node, a
#: tuple rule whose negated CE keeps the right-activation scan visible,
#: and expiry by ``set-remove`` so that working memory holds the last
#: WINDOW_TICKS ticks and no more — a steady state, not a ramp.
WINDOW = """
(literalize dept name)
(literalize emp name dept salary tick)
(literalize seen name tick)
(literalize expire before)
(p rollup
  (dept ^name <d>)
  { [emp ^dept <d>] <staff> }
  :test ((count <staff>) >= 1)
  -->
  (write rollup <d> (count <staff>) (avg <staff> ^salary)))
(p note-emp
  (emp ^name <n> ^salary > 1500 ^tick <t>)
  -(seen ^name <n>)
  -->
  (make seen ^name <n> ^tick <t>))
(p expire-emps
  (expire ^before <k>)
  { [emp ^tick < <k>] <old> }
  -->
  (set-remove <old>))
(p expire-seen
  (expire ^before <k>)
  { [seen ^tick < <k>] <old> }
  -->
  (set-remove <old>))
(p expire-done
  { (expire) <marker> }
  -->
  (remove <marker>))
"""

#: Match-dominated: alpha chains most orders fail, an indexed join with
#: a residual test, a join with no equality test (left activations scan
#: the alpha memory), and a negated CE.  Set-oriented rules keep the
#: firings in the tens, so the time goes to matching.
KERNEL = """
(literalize order dept status priority qty)
(literalize dept name cap)
(p open-volume
  (dept ^name <d>)
  { [order ^dept <d> ^status open ^priority > 5] <S> }
  :test ((count <S>) >= 1)
  -->
  (write open <d> (count <S>)))
(p over-cap
  (dept ^cap <c>)
  { [order ^status held ^qty > <c>] <B> }
  :test ((count <B>) >= 1)
  -->
  (write over (count <B>)))
(p all-quiet
  (dept ^name <d>)
  -(order ^dept <d> ^status open ^priority > 8)
  -->
  (write quiet <d>))
"""

#: Section 7.1, tuple-oriented: a control WME, a negated CE to detect
#: the end, one firing per item and a conflict set of N.
ACT_TUPLE = """
(literalize item status value)
(literalize control phase)
(p start-processing
  (control ^phase start)
  -->
  (modify 1 ^phase run))
(p process-one
  (control ^phase run)
  (item ^status raw)
  -->
  (modify 2 ^status done))
(p finish-processing
  (control ^phase run)
  -(item ^status raw)
  -->
  (modify 1 ^phase finished))
"""

#: Section 7.1, set-oriented: the same task in one firing.
ACT_SET = """
(literalize item status value)
(literalize control phase)
(p process-all
  (control ^phase start)
  { [item ^status raw] <Items> }
  -->
  (set-modify <Items> ^status done)
  (modify 1 ^phase finished))
"""

#: Section 8: a set-oriented roll-up, retrieved by the Figure 6
#: ``GROUP BY`` every cycle, beside a plain join rule.
DIPS = """
(literalize dept name)
(literalize emp name dept salary)
(p dept-rollup
  (dept ^name <d>)
  { [emp ^dept <d>] <staff> }
  :test ((count <staff>) >= 1)
  -->
  (write staffed <d> (count <staff>) (avg <staff> ^salary)))
(p top-paid
  (dept ^name <d>)
  (emp ^dept <d> ^salary > 2450 ^name <n>)
  -->
  (write top <n> <d>))
"""
