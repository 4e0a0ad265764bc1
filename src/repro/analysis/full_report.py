"""One-shot compilation of every reproduced artifact into a report.

``python -m repro report`` (or :func:`render_full_report`) regenerates
the paper's tables and figures plus the reproduction's extensions in a
single text document — the closest thing to re-typesetting the paper's
evaluation section from live code.
"""

from __future__ import annotations

from typing import List


def render_playbooks(seed: int) -> str:
    """Section VI-A: what each studied vendor's own-app traffic teaches.

    The attacker sets up and removes their *own* device behind the MITM
    proxy; the capture yields the Bind/Unbind shapes to replay and the
    field that carries the device ID.
    """
    from repro.attacks.attacker import RemoteAttacker
    from repro.attacks.traffic_analysis import analyze_own_traffic
    from repro.scenario import Deployment
    from repro.vendors import STUDIED_VENDORS

    lines = [f"{'vendor':<13} {'id field':<10} {'bind shape':<24} unbind shape"]
    playbooks = []
    for design in STUDIED_VENDORS:
        deployment = Deployment(design, seed=seed)
        playbook = analyze_own_traffic(deployment, RemoteAttacker(deployment))
        playbooks.append(playbook)
        lines.append(
            f"{design.name:<13} {playbook.id_field or '-':<10} "
            f"{playbook.bind_shape or '-':<24} {playbook.unbind_shape or '-'}"
        )
    located = sum(p.id_field == "device_id" for p in playbooks)
    binds = sum(p.bind_shape is not None for p in playbooks)
    lines.append(
        f"=> {located}/{len(playbooks)} playbooks locate the device ID in "
        f"'device_id'; {binds}/{len(playbooks)} observed a Bind to replay"
    )
    return "\n".join(lines)


def render_stealth(seed: int) -> str:
    """The abstract's "stealthy device control": what the victim sees
    after each control-state attack on the studied vendors."""
    from repro.analysis.stealth import stealth_survey
    from repro.vendors import STUDIED_VENDORS

    rows = [
        report for design in STUDIED_VENDORS
        for report in stealth_survey(design, seed=seed)
    ]
    successes = [
        r for r in rows if r.attack_outcome in ("yes", "O", "escalated")
    ]
    lines = [
        f"{len(rows)} control-state attack runs over {len(STUDIED_VENDORS)} "
        f"studied vendors; {len(successes)} succeeded (yes, O or escalated):"
    ]
    lines.extend(f"  {r.vendor:<13} {r.line()}" for r in successes)
    notified = sum(bool(r.notifications) for r in successes)
    stealthy = sum(r.stealthy_success for r in rows)
    lines.append(
        f"=> {notified} of {len(successes)} successful attacks produced a "
        f"user notification; {stealthy} confirmed successes left no app "
        f"symptom either"
    )
    return "\n".join(lines)


def render_cascade(seed: int) -> str:
    """Section V-B: forged sensor data switches the air conditioner.

    A DevId vendor with public firmware (the A1-exposed corner); the
    victim's home has an AC smart plug and a temperature sensor joined
    by an IFTTT-style rule.  The attacker forges one sensor Status and
    never addresses the AC.
    """
    from repro.app.automation import AutomationEngine, Rule
    from repro.attacks.attacker import RemoteAttacker
    from repro.cloud.policy import DeviceAuthMode, VendorDesign
    from repro.scenario import Deployment

    design = VendorDesign(
        name="CascadeVendor", device_type="smart-plug",
        device_auth=DeviceAuthMode.DEV_ID,
        device_auth_known=DeviceAuthMode.DEV_ID,
        firmware_available=True,
        id_scheme="serial-number",
    )
    world = Deployment(design, seed=seed)
    victim = world.victim
    world.victim_full_setup()
    sensor = world.add_victim_device("temp-sensor", label="sensor")
    world.setup_victim_device(sensor)
    ac_plug = victim.device
    engine = AutomationEngine(world.env, victim.app)
    engine.add_rule(Rule(
        name="cool-when-hot",
        trigger_device=sensor.device_id, metric="temperature_c",
        op=">", threshold=28.0,
        action_device=ac_plug.device_id, command="on",
    ))
    world.run_heartbeats(1)
    quiet = engine.evaluate_once()
    reading = victim.app.query(sensor.device_id).payload["telemetry"]
    before = ac_plug.state["on"]

    attacker = RemoteAttacker(world)
    attacker.login()
    attacker.learn_victim_device_id(sensor.device_id)
    accepted, code, _ = attacker.send(
        attacker.forge_status({"temperature_c": 45.0})
    )
    fired = engine.evaluate_once()
    world.run_heartbeats(1)
    return "\n".join([
        f"rule cool-when-hot: IF {sensor.device_id}.temperature_c > 28 "
        f"THEN {ac_plug.device_id}.on",
        f"ambient reading {reading['temperature_c']} C: "
        f"{len(quiet)} firing(s), AC plug on: {before}",
        f"attacker forges one sensor Status (temperature_c=45.0): "
        f"{'accepted' if accepted else code}",
        f"rule firings: {', '.join(f'{f.rule} (observed {f.observed})' for f in fired) or 'none'}",
        f"=> AC plug on: {before} -> {ac_plug.state['on']}; "
        f"the attacker never addressed the AC",
    ])


def render_full_report(seed: int = 3) -> str:
    """Build the complete artifact report (takes a few seconds)."""
    from repro.analysis.advisor import advise
    from repro.analysis.design_space import sweep_design_space
    from repro.analysis.evaluator import evaluate_all_vendors
    from repro.analysis.metrics import compare_designs, render_costs
    from repro.analysis.protocol_model import check_safety
    from repro.analysis.recommendations import render_findings
    from repro.analysis.report import render_agreement, render_table_iii
    from repro.analysis.surface import render_table_ii
    from repro.analysis.traces import trace_binding_creation, trace_device_auth, trace_lifecycle
    from repro.core.model import check_paper_properties, render_figure_2
    from repro.core.notation import render_table_i
    from repro.identity.device_ids import MacDeviceId, RandomDeviceId, SerialDeviceId
    from repro.identity.entropy import analyze, render_report
    from repro.secure import SECURE_BASELINES, verify_all_baselines
    from repro.vendors import STUDIED_VENDORS, vendor

    sections: List[str] = []

    def section(title: str, body: str) -> None:
        sections.append("=" * 72)
        sections.append(title)
        sections.append("=" * 72)
        sections.append(body)
        sections.append("")

    section("Table I — notation", render_table_i())
    section("Figure 1 — binding life cycle (Belkin)",
            trace_lifecycle(vendor("Belkin"), seed=seed))
    properties = check_paper_properties()
    section(
        "Figure 2 — device-shadow state machine",
        render_figure_2() + "\n\nmodel properties:\n" + "\n".join(
            f"  {name:<36} {'OK' if ok else 'VIOLATED'}"
            for name, ok in properties.items()
        ),
    )
    section("Figure 3 — device authentication designs", trace_device_auth(seed=seed))
    section("Figure 4 — binding creation designs", trace_binding_creation(seed=seed))
    section("Table II — attack taxonomy", render_table_ii())

    evaluations = evaluate_all_vendors(seed=seed)
    section(
        "Table III — ten-vendor evaluation",
        render_table_iii(evaluations) + "\n\n" + render_agreement(evaluations),
    )

    schemes = [SerialDeviceId(digits=6), SerialDeviceId(digits=7),
               MacDeviceId("a4:77:33"), RandomDeviceId(hex_chars=32)]
    section("Device-ID enumerability", render_report([analyze(s) for s in schemes]))
    section("§VI-A — forgery playbooks from own-app traffic", render_playbooks(seed))
    section("Attack stealth (what the victim sees)", render_stealth(seed))
    section("§V-B — A1 cascade through an automation rule", render_cascade(seed))

    section(
        "Recommended designs under the battery",
        "\n\n".join(v.render() for v in verify_all_baselines(seed=seed)),
    )
    section("Design-space sweep", sweep_design_space().render())
    section(
        "Model-checked witnesses",
        "\n\n".join(check_safety(design).render() for design in STUDIED_VENDORS),
    )
    section(
        "Minimal fixes per vendor",
        "\n".join(advise(design).render() for design in STUDIED_VENDORS),
    )
    section(
        "Section VII design lint",
        "\n\n".join(render_findings(design) for design in STUDIED_VENDORS),
    )
    section(
        "Setup-cost overhead",
        render_costs(compare_designs(list(STUDIED_VENDORS) + list(SECURE_BASELINES),
                                     seed=seed)),
    )
    return "\n".join(sections)
