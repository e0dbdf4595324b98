package market

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/datamarket/mbp/internal/obs"
	"github.com/datamarket/mbp/internal/obs/trace"
)

// Exchange is the full data marketplace of Figure 1 scaled out: many
// sellers' brokers listed side by side, each selling model instances
// over its own dataset. BDEX/Qlik-style markets in the paper's
// introduction host many datasets; Exchange is the registry layer that
// turns one broker into such a market.
type Exchange struct {
	mu       sync.RWMutex
	listings map[string]*Broker
}

// NewExchange returns an empty marketplace.
func NewExchange() *Exchange {
	return &Exchange{listings: make(map[string]*Broker)}
}

// ErrUnknownListing is returned for listings that do not exist.
var ErrUnknownListing = errors.New("market: unknown listing")

// List registers a broker under a unique listing name.
func (e *Exchange) List(name string, b *Broker) error {
	if name == "" {
		return errors.New("market: empty listing name")
	}
	if b == nil {
		return errors.New("market: nil broker")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.listings[name]; dup {
		return fmt.Errorf("market: listing %q already exists", name)
	}
	e.listings[name] = b
	metListings.Add(1)
	return nil
}

// Delist removes a listing.
func (e *Exchange) Delist(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.listings[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownListing, name)
	}
	delete(e.listings, name)
	metListings.Add(-1)
	return nil
}

// BrokerContext returns the broker behind a listing. Each successful
// resolution counts toward the listing's lookup metric, so /metrics
// shows per-listing traffic on a multi-seller exchange. The dispatch is
// recorded as an "exchange.resolve_listing" span on the caller's
// context, so a multi-seller trace shows which listing the request
// routed to and what the lookup cost.
func (e *Exchange) BrokerContext(ctx context.Context, name string) (*Broker, error) {
	_, span := trace.Start(ctx, "exchange.resolve_listing", "listing", name)
	defer span.End()
	e.mu.RLock()
	defer e.mu.RUnlock()
	b, ok := e.listings[name]
	if !ok {
		span.SetAttr("outcome", "unknown")
		return nil, fmt.Errorf("%w: %q", ErrUnknownListing, name)
	}
	obs.Default.Counter(obs.Name("exchange.listing_lookups_total", "listing", name)).Inc()
	return b, nil
}

// Listings returns the listing names in sorted order.
func (e *Exchange) Listings() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.listings))
	for name := range e.listings {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TotalRevenue aggregates seller and broker shares across all listings.
func (e *Exchange) TotalRevenue() (sellerShare, brokerShare float64) {
	e.mu.RLock()
	brokers := make([]*Broker, 0, len(e.listings))
	for _, b := range e.listings {
		brokers = append(brokers, b)
	}
	e.mu.RUnlock()
	for _, b := range brokers {
		s, br := b.RevenueSplit()
		sellerShare += s
		brokerShare += br
	}
	return sellerShare, brokerShare
}

// RevenueBySeller aggregates per-seller attributed revenue across all
// listings (see Broker.RevenueSplits), plus the brokers' total
// commission. Sellers staked on several listings accumulate across
// them under one id.
func (e *Exchange) RevenueBySeller() (bySeller map[string]float64, brokerShare float64) {
	e.mu.RLock()
	brokers := make([]*Broker, 0, len(e.listings))
	for _, b := range e.listings {
		brokers = append(brokers, b)
	}
	e.mu.RUnlock()
	bySeller = make(map[string]float64)
	for _, b := range brokers {
		for id, amt := range b.RevenueSplits() {
			bySeller[id] += amt
		}
		_, br := b.RevenueSplit()
		brokerShare += br
	}
	return bySeller, brokerShare
}
