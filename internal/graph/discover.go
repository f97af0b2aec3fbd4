package graph

import (
	"fmt"
	"sort"

	"qoschain/internal/media"
	"qoschain/internal/profile"
	"qoschain/internal/service"
)

// Directory is the service-discovery query graph construction needs: who
// accepts a given format. A query either answers or fails; a registry
// client (registry.Client) satisfies it.
type Directory interface {
	ByInput(media.Format) ([]*service.Service, error)
}

// Discover collects the trans-coding services relevant to adapting the
// content by breadth-first expansion over formats: starting from the
// content's variant formats, it queries the directory for services
// accepting each frontier format and adds their output formats to the
// frontier, up to maxDepth conversion steps (0 means unlimited). The
// result is sorted by service ID and ready for Build.
//
// This is how a deployment actually obtains the Build input: rather than
// enumerating every advertised service, only those reachable from the
// content's formats matter — everything else could never join a chain.
//
// The first failed query fails the discovery: a partial service list
// would compose a worse chain without anyone knowing it.
func Discover(dir Directory, content *profile.Content, maxDepth int) ([]*service.Service, error) {
	if dir == nil || content == nil {
		return nil, nil
	}
	seenFormats := make(media.FormatSet)
	frontier := make([]media.Format, 0, len(content.Variants))
	for _, v := range content.Variants {
		if !seenFormats.Contains(v.Format) {
			seenFormats.Add(v.Format)
			frontier = append(frontier, v.Format)
		}
	}
	found := make(map[service.ID]*service.Service)
	for depth := 0; len(frontier) > 0 && (maxDepth <= 0 || depth < maxDepth); depth++ {
		var next []media.Format
		for _, f := range frontier {
			svcs, err := dir.ByInput(f)
			if err != nil {
				return nil, fmt.Errorf("graph: discovering services accepting %s: %w", f, err)
			}
			for _, svc := range svcs {
				if _, ok := found[svc.ID]; ok {
					continue
				}
				found[svc.ID] = svc
				for _, out := range svc.Outputs {
					if !seenFormats.Contains(out) {
						seenFormats.Add(out)
						next = append(next, out)
					}
				}
			}
		}
		frontier = next
	}
	out := make([]*service.Service, 0, len(found))
	for _, svc := range found {
		out = append(out, svc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
