package main

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"

	"github.com/clarifynet/clarify/ios"
	"github.com/clarifynet/clarify/packet"
	"github.com/clarifynet/clarify/policy"
	"github.com/clarifynet/clarify/spec"
)

// checkOutput is the output checker. It runs outside every timed region and
// accepts an update only if
//
//   - the shipped snippet re-verifies against its spec on a fresh, uncached
//     symbolic space, and
//   - for every question asked, the final configuration's concrete verdict
//     on the witness is the behaviour of the option the operator chose.
func checkOutput(o *output) error {
	snippet, err := ios.Parse(o.SnippetText)
	if err != nil {
		return fmt.Errorf("snippet does not parse: %v", err)
	}
	var violations []spec.Violation
	if o.ACL {
		name, err := soleName(len(snippet.ACLs), keys(snippet.ACLs))
		if err != nil {
			return err
		}
		s, err := spec.ParseACLSpec([]byte(o.SpecJSON))
		if err != nil {
			return fmt.Errorf("spec: %v", err)
		}
		if violations, err = spec.VerifyACLSnippet(snippet, name, s); err != nil {
			return fmt.Errorf("re-verify: %v", err)
		}
	} else {
		name, err := soleName(len(snippet.RouteMaps), keys(snippet.RouteMaps))
		if err != nil {
			return err
		}
		s, err := spec.ParseRouteMapSpec([]byte(o.SpecJSON))
		if err != nil {
			return fmt.Errorf("spec: %v", err)
		}
		if violations, err = spec.VerifyRouteMapSnippet(snippet, name, s); err != nil {
			return fmt.Errorf("re-verify: %v", err)
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("shipped snippet violates its spec: %v", violations[0].Details)
	}
	if o.Final == nil {
		if o.Final, err = ios.Parse(o.FinalText); err != nil {
			return fmt.Errorf("final config does not parse: %v", err)
		}
	}
	ev := policy.NewEvaluator(o.Final)
	for i, q := range o.Questions {
		var got string
		switch {
		case q.Route != nil:
			rm := o.Final.RouteMaps[o.Target]
			if rm == nil {
				return fmt.Errorf("final config lacks route-map %s", o.Target)
			}
			v, err := ev.EvalRouteMap(rm, *q.Route)
			if err != nil {
				return fmt.Errorf("question %d: evaluate: %v", i+1, err)
			}
			got = renderRouteVerdict(v)
		case q.Packet != nil:
			acl := o.Final.ACLs[o.Target]
			if acl == nil {
				return fmt.Errorf("final config lacks ACL %s", o.Target)
			}
			got = renderACLAction(policy.EvalACL(acl, *q.Packet).Permit)
		default:
			return fmt.Errorf("question %d has no witness", i+1)
		}
		if got != q.Chosen {
			return fmt.Errorf("question %d: final config gives %q on the witness, operator chose %q", i+1, got, q.Chosen)
		}
	}
	return nil
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func soleName(n int, names []string) (string, error) {
	if n != 1 {
		return "", fmt.Errorf("snippet defines %d policies, want 1", n)
	}
	return names[0], nil
}

// renderRouteVerdict and renderACLAction render an option the way clarifyd
// renders Question.Option1/Option2 on the wire.
func renderRouteVerdict(v policy.RouteVerdict) string {
	if !v.Permit {
		return "deny"
	}
	return "permit; output " + v.Output.String()
}

func renderACLAction(permit bool) string {
	if permit {
		return "permit"
	}
	return "deny"
}

// parsePacket inverts packet.Packet.String, the rendering of an ACL
// question's witness on the wire.
func parsePacket(s string) (packet.Packet, error) {
	f := strings.Fields(s)
	bad := fmt.Errorf("unparseable witness packet %q", s)
	if len(f) < 4 || f[2] != "->" {
		return packet.Packet{}, bad
	}
	var p packet.Packet
	switch f[0] {
	case "icmp":
		p.Protocol = packet.ProtoICMP
	case "tcp":
		p.Protocol = packet.ProtoTCP
	case "udp":
		p.Protocol = packet.ProtoUDP
	default:
		n, err := strconv.ParseUint(f[0], 10, 8)
		if err != nil {
			return p, bad
		}
		p.Protocol = uint8(n)
	}
	if p.Protocol == packet.ProtoICMP {
		if len(f) != 8 {
			return p, bad
		}
		src, err1 := netip.ParseAddr(f[1])
		dst, err2 := netip.ParseAddr(f[3])
		typ, err3 := strconv.ParseUint(f[5], 10, 8)
		code, err4 := strconv.ParseUint(f[7], 10, 8)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return p, bad
		}
		p.Src, p.Dst, p.ICMPType, p.ICMPCode = src, dst, uint8(typ), uint8(code)
		return p, nil
	}
	src, err1 := netip.ParseAddrPort(f[1])
	dst, err2 := netip.ParseAddrPort(f[3])
	if err1 != nil || err2 != nil {
		return p, bad
	}
	p.Src, p.SrcPort, p.Dst, p.DstPort = src.Addr(), src.Port(), dst.Addr(), dst.Port()
	p.Established = len(f) == 5 && f[4] == "established"
	if p.String() != s {
		return p, bad
	}
	return p, nil
}
